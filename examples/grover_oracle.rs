//! Grover database loading: the workload that motivates QRAM in the
//! paper's introduction.
//!
//! Grover's algorithm searches an unordered N-cell database in O(√N)
//! *queries* — but each query must load the database coherently, in
//! superposition over all addresses. This example plays the data-loading
//! step: it prepares the uniform superposition, queries a marked-items
//! database through three architectures, and compares what each costs
//! and how much noise each tolerates — including the Regev–Schiff point
//! (cited as [51]) that a faulty oracle erases the quantum speedup.
//!
//! ```sh
//! cargo run --release --example grover_oracle
//! ```

use qram::core::{BucketBrigadeQram, Memory, QueryArchitecture, SelectSwapQram, VirtualQram};
use qram::noise::{FaultSampler, NoiseModel, PauliChannel, BASE_ERROR_RATE};
use qram::sim::{run, run_shots_stats, ShotConfig};

fn main() {
    // A 64-item database with 3 marked items (the Grover targets).
    let n = 6;
    let marked = [9usize, 33, 57];
    let memory = Memory::from_bits((0..1 << n).map(|i| marked.contains(&i)));

    println!(
        "database      : {} items, {} marked",
        memory.len(),
        marked.len()
    );
    println!("Grover needs  : ~⌈(π/4)·√(N/M)⌉ = 4 oracle queries\n");

    let archs: Vec<Box<dyn QueryArchitecture>> = vec![
        Box::new(VirtualQram::new(2, 4)),
        Box::new(BucketBrigadeQram::new(0, n)),
        Box::new(SelectSwapQram::new(3, 3)),
    ];

    println!(
        "{:<26} {:>7} {:>7} {:>8} {:>8} {:>10}",
        "architecture", "qubits", "depth", "T-count", "gates", "F(ε=1e-3)"
    );
    for arch in &archs {
        let query = arch.build(&memory);
        let r = query.resources();

        // One coherent oracle query: all 64 addresses at once.
        let input = query.input_state(None);
        let mut state = input.clone();
        run(query.circuit().gates(), &mut state).expect("simulable");
        assert!(
            (state.probability_of_one(query.bus()) - marked.len() as f64 / memory.len() as f64)
                .abs()
                < 1e-9,
            "bus must carry the marked-item indicator"
        );

        // How reliable is the oracle on 10⁻³-error hardware?
        let model = NoiseModel::per_gate(PauliChannel::depolarizing(BASE_ERROR_RATE));
        let sampler = FaultSampler::new(query.circuit(), model, 42);
        let (est, _) = run_shots_stats(
            query.circuit().gates(),
            &input,
            Some(&query.output_qubits()),
            &ShotConfig::new(200),
            &|shot| sampler.sample_shot(shot),
        )
        .expect("simulable");

        println!(
            "{:<26} {:>7} {:>7} {:>8} {:>8} {:>10.4}",
            arch.name(),
            r.num_qubits,
            r.depth,
            r.t_count,
            r.num_gates,
            est.mean
        );
    }

    println!(
        "\nA Grover run makes √N sequential queries, so the end-to-end success\n\
         probability is ≈ F^√N: at F = 0.95 and N = 64 that is {:.2} — the\n\
         Regev–Schiff caveat: noisy oracles spend the quadratic speedup.",
        0.95f64.powf(8.0)
    );
}
