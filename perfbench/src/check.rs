//! The correctness gate applied to every pass.

use crate::serve::Pass;
use crate::workload::Inputs;

/// Violations found, counted, with the first few described.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Violations {
    /// Total violations.
    pub count: u64,
    /// Descriptions of the first few.
    pub first: Vec<String>,
}

impl Violations {
    /// Records one violation.
    pub fn push(&mut self, message: String) {
        self.count += 1;
        if self.first.len() < 8 {
            self.first.push(message);
        }
    }

    /// Folds another set in.
    pub fn extend(&mut self, other: Violations) {
        self.count += other.count;
        for message in other.first {
            if self.first.len() < 8 {
                self.first.push(message);
            }
        }
    }
}

/// Checks a pass against its inputs: every served value equals the
/// memory, every result belongs to exactly one offer and carries that
/// offer's address, spec and arrival, the virtual latency partitions
/// exactly (`completed − arrival == front_wait + queue_wait + compile +
/// execute`), and `offered == completed + shed + rejected`. Rejected
/// offers and missing results are violations too.
pub fn check_pass(inputs: &Inputs, pass: &Pass) -> Violations {
    let mut v = Violations::default();
    let offered = inputs.offers.len();
    let mut seen = vec![false; offered];
    for r in &pass.served {
        let Some(offer) = inputs.offers.get(r.seq as usize) else {
            v.push(format!("result for unknown offer {}", r.seq));
            continue;
        };
        if std::mem::replace(&mut seen[r.seq as usize], true) {
            v.push(format!("offer {} answered twice", r.seq));
            continue;
        }
        if r.address != offer.address || r.spec != offer.spec {
            v.push(format!("offer {} answered for another request", r.seq));
        } else if r.value != inputs.memory.get(r.address as usize) {
            v.push(format!(
                "offer {}: wrong value at address {}",
                r.seq, r.address
            ));
        } else if r.door_arrival != offer.arrival {
            v.push(format!("offer {}: arrival moved", r.seq));
        } else if r.completed.checked_sub(r.door_arrival) != Some(r.total()) {
            v.push(format!("offer {}: latency does not partition", r.seq));
        } else if r.fidelity.shots != inputs.shots() {
            v.push(format!(
                "offer {}: {} shots served",
                r.seq, r.fidelity.shots
            ));
        }
    }
    for &seq in &pass.shed_seqs {
        match seen.get_mut(seq as usize) {
            Some(slot) if !*slot => *slot = true,
            _ => v.push(format!("shed offer {seq} was also served or unknown")),
        }
    }
    for _ in 0..pass.rejected {
        v.push("offer rejected".into());
    }
    if pass.shed != pass.program_shed {
        v.push(format!(
            "bench saw {} sheds, program counted {}",
            pass.shed, pass.program_shed
        ));
    }
    let accounted = pass.served.len() as u64 + pass.shed + pass.rejected;
    if accounted != pass.offered {
        v.push(format!(
            "offered {} != completed {} + shed {} + rejected {}",
            pass.offered,
            pass.served.len(),
            pass.shed,
            pass.rejected
        ));
    }
    let missing = pass.offered.saturating_sub(accounted);
    for _ in 0..missing {
        v.push("offer never answered".into());
    }
    v
}
