//! Shared command-line parsing for the experiment binaries.
//!
//! Every table/figure binary accepts the same flag set, parsed here once
//! instead of being copy-pasted per binary:
//!
//! * `--full` — paper-scale sweep instead of the quick default;
//! * `--shots N` — Monte-Carlo shots per data point;
//! * `--seed N` — master RNG seed (default 2023, the paper's venue year);
//! * `--threads N` — shot-engine worker threads across shots (`0` = auto,
//!   the default);
//! * `--path-chunks N` — parallel path chunks inside each shot (`1` =
//!   serial, the default; `0` = auto). Results are bit-identical for any
//!   `(threads, path-chunks)` pair; see [`qram_sim::run_shots_stats`].

use qram_sim::ShotConfig;

/// Command-line options shared by every experiment binary.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RunOptions {
    /// Paper-scale sweep instead of the quick default.
    pub full: bool,
    /// Monte-Carlo shots per data point (`None` = binary's default).
    pub shots: Option<usize>,
    /// Master RNG seed (default 2023, the paper's venue year).
    pub seed: u64,
    /// Shot-engine worker threads across shots (`0` = auto).
    pub threads: usize,
    /// Parallel path chunks inside each shot (`1` = serial, `0` = auto).
    pub path_chunks: usize,
}

impl Default for RunOptions {
    fn default() -> Self {
        RunOptions {
            full: false,
            shots: None,
            seed: ShotConfig::DEFAULT_SEED,
            threads: 0,
            path_chunks: 1,
        }
    }
}

impl RunOptions {
    /// Parses the shared flag set from `std::env::args`.
    ///
    /// # Panics
    ///
    /// Panics with a usage message on unknown flags or malformed values.
    pub fn from_args() -> Self {
        Self::parse(std::env::args().skip(1))
    }

    /// Parses the shared flag set from an explicit argument list
    /// (exposed separately from [`RunOptions::from_args`] for tests).
    ///
    /// # Panics
    ///
    /// Panics with a usage message on unknown flags or malformed values.
    pub fn parse(args: impl IntoIterator<Item = String>) -> Self {
        let mut opts = RunOptions::default();
        let mut args = args.into_iter();
        while let Some(arg) = args.next() {
            match arg.as_str() {
                "--full" => opts.full = true,
                "--shots" => {
                    let v = args.next().expect("--shots requires a value");
                    opts.shots = Some(v.parse().expect("--shots expects an integer"));
                }
                "--seed" => {
                    let v = args.next().expect("--seed requires a value");
                    opts.seed = v.parse().expect("--seed expects an integer");
                }
                "--threads" => {
                    let v = args.next().expect("--threads requires a value");
                    opts.threads = v.parse().expect("--threads expects an integer");
                }
                "--path-chunks" => {
                    let v = args.next().expect("--path-chunks requires a value");
                    opts.path_chunks = v.parse().expect("--path-chunks expects an integer");
                }
                other => panic!(
                    "unknown flag `{other}` (expected --full, --shots N, --seed N, --threads N, \
                     --path-chunks N)"
                ),
            }
        }
        opts
    }

    /// The shot count to use given a binary default.
    pub fn shots_or(&self, default: usize) -> usize {
        self.shots.unwrap_or(default)
    }

    /// The shot-engine configuration these options select, given the
    /// binary's default shot count.
    pub fn shot_config(&self, default_shots: usize) -> ShotConfig {
        ShotConfig {
            shots: self.shots_or(default_shots),
            seed: self.seed,
            threads: self.threads,
            path_chunks: self.path_chunks,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(args: &[&str]) -> RunOptions {
        RunOptions::parse(args.iter().map(|s| s.to_string()))
    }

    #[test]
    fn defaults() {
        let opts = parse(&[]);
        assert_eq!(opts, RunOptions::default());
        assert_eq!(opts.seed, 2023);
        assert_eq!(opts.threads, 0);
        assert_eq!(opts.path_chunks, 1);
        assert_eq!(opts.shots_or(128), 128);
    }

    #[test]
    fn parses_all_flags() {
        let opts = parse(&[
            "--full",
            "--shots",
            "64",
            "--seed",
            "7",
            "--threads",
            "4",
            "--path-chunks",
            "2",
        ]);
        assert!(opts.full);
        assert_eq!(opts.shots, Some(64));
        assert_eq!(opts.seed, 7);
        assert_eq!(opts.threads, 4);
        assert_eq!(opts.path_chunks, 2);
        assert_eq!(opts.shots_or(128), 64);
    }

    #[test]
    fn shot_config_threads_everything_through() {
        let opts = parse(&[
            "--shots",
            "32",
            "--seed",
            "9",
            "--threads",
            "2",
            "--path-chunks",
            "4",
        ]);
        let config = opts.shot_config(100);
        assert_eq!(config.shots, 32);
        assert_eq!(config.seed, 9);
        assert_eq!(config.threads, 2);
        assert_eq!(config.path_chunks, 4);
    }

    #[test]
    #[should_panic(expected = "unknown flag")]
    fn rejects_unknown_flags() {
        parse(&["--fast"]);
    }

    #[test]
    #[should_panic(expected = "--threads expects an integer")]
    fn rejects_malformed_threads() {
        parse(&["--threads", "many"]);
    }
}
