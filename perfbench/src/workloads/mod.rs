//! The four workloads. Each module generates its inputs from the seed
//! (`inputs`), sets up (`setup`, timed by the caller between cycles) and
//! runs one closed-loop pass of repeated cycles that checks every answer
//! (`measure`).

pub mod certify;
pub mod horizon;
pub mod margin;
pub mod outcome;

use std::collections::hash_map::DefaultHasher;
use std::hash::{Hash, Hasher};

use cpsrisk::epa::{catalog_problem, EpaProblem};

use crate::harness::Pass;
use crate::trace::Tracer;

/// Error type of set-up and measurement.
pub type BoxError = Box<dyn std::error::Error>;

/// A benchmark workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Fixed-scenario outcome queries (conditional WFM).
    Outcome,
    /// Attack-margin queries (CDCL search, learned DB).
    Margin,
    /// Minimal-violating-horizon sweeps (incremental grounding).
    Horizon,
    /// Certified solve then independent proof check.
    Certify,
}

impl Workload {
    /// Every workload, in the order `BENCHMARK.json` lists them.
    pub const ALL: [Workload; 4] = [
        Workload::Outcome,
        Workload::Margin,
        Workload::Horizon,
        Workload::Certify,
    ];

    /// The workload's command-line name.
    pub fn name(self) -> &'static str {
        match self {
            Workload::Outcome => "outcome",
            Workload::Margin => "margin",
            Workload::Horizon => "horizon",
            Workload::Certify => "certify",
        }
    }

    /// Parse a command-line name.
    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// Set-ups measured before each cycle, so that a run holds 17 to 64
    /// of them for `setup_s`; they and their probes take 1 to 3 % of a run.
    pub fn setups_per_cycle(self) -> usize {
        match self {
            Workload::Outcome => 1,
            Workload::Margin => 2,
            Workload::Horizon => 4,
            Workload::Certify => 8,
        }
    }
}

/// Generated inputs of one workload.
pub enum Inputs {
    /// See [`outcome::Inputs`].
    Outcome(outcome::Inputs),
    /// See [`margin::Inputs`].
    Margin(margin::Inputs),
    /// See [`horizon::Inputs`].
    Horizon(horizon::Inputs),
    /// See [`certify::Inputs`].
    Certify(certify::Inputs),
}

impl Inputs {
    /// Generate `workload`'s inputs from `seed`.
    pub fn generate(workload: Workload, seed: u64) -> Inputs {
        match workload {
            Workload::Outcome => Inputs::Outcome(outcome::inputs(seed)),
            Workload::Margin => Inputs::Margin(margin::inputs(seed)),
            Workload::Horizon => Inputs::Horizon(horizon::inputs(seed)),
            Workload::Certify => Inputs::Certify(certify::inputs(seed)),
        }
    }

    /// A digest of the inputs: equal seeds must give equal digests.
    pub fn digest(&self) -> u64 {
        match self {
            Inputs::Outcome(i) => i.digest(),
            Inputs::Margin(i) => i.digest(),
            Inputs::Horizon(i) => i.digest(),
            Inputs::Certify(i) => i.digest(),
        }
    }

    /// Set-up number `rep`, from generated inputs to an op being ready.
    pub fn setup(&self, rep: usize, tracer: &mut Tracer) -> Result<(), BoxError> {
        match self {
            Inputs::Outcome(i) => outcome::setup(i, tracer),
            Inputs::Margin(i) => margin::setup(i, tracer),
            Inputs::Horizon(i) => horizon::setup(i, rep, tracer),
            Inputs::Certify(i) => certify::setup(i, tracer),
        }
    }

    /// One closed-loop pass of about `seconds` from a fresh set-up;
    /// `between` runs before each cycle.
    pub fn measure(
        &self,
        seconds: f64,
        tracer: &mut Tracer,
        between: &mut dyn FnMut(),
    ) -> Result<Pass, BoxError> {
        match self {
            Inputs::Outcome(i) => outcome::measure(i, seconds, tracer, between),
            Inputs::Margin(i) => margin::measure(i, seconds, tracer, between),
            Inputs::Horizon(i) => horizon::measure(i, seconds, tracer, between),
            Inputs::Certify(i) => certify::measure(i, seconds, tracer, between),
        }
    }
}

/// Components of the catalog plant shared by `outcome` and `margin`.
pub const CATALOG_COMPONENTS: usize = 160;

/// Scenario cardinality bound of the catalog query space (fault pairs).
pub const CATALOG_MAX_FAULTS: usize = 2;

/// The catalog plant of `outcome` and `margin`, at the size and seed of
/// `cpsrisk bench --workload catalog`. The plant is the same for every
/// run seed: plants of different seeds differ by about ±10 % in query
/// cost, which would swamp the run-to-run spread. The run seed picks the
/// query order and the reference samples instead.
pub fn catalog() -> EpaProblem {
    catalog_problem(
        CATALOG_COMPONENTS,
        cpsrisk::bench::catalog_chains(CATALOG_COMPONENTS),
        cpsrisk::bench::CATALOG_SEED,
    )
}

/// Deterministic splitmix64 generator: the benchmark's only source of
/// randomness, so a seed fixes every input.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    /// A generator for `seed` and stream `stream` (independent streams
    /// for the same seed, e.g. one per op).
    pub fn new(seed: u64, stream: u64) -> Rng {
        let mut rng = Rng(seed ^ stream.wrapping_mul(0xA076_1D64_78BD_642F));
        rng.next_u64();
        rng
    }

    /// The next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// A uniform index below `n` (`n > 0`).
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }

    /// Fisher–Yates shuffle.
    pub fn shuffle<T>(&mut self, xs: &mut [T]) {
        for i in (1..xs.len()).rev() {
            xs.swap(i, self.below(i + 1));
        }
    }

    /// `k` distinct indices below `n`, ascending.
    pub fn sample(&mut self, n: usize, k: usize) -> Vec<usize> {
        let mut all: Vec<usize> = (0..n).collect();
        self.shuffle(&mut all);
        all.truncate(k);
        all.sort_unstable();
        all
    }
}

/// Stable digest of any hashable value (used to compare answers and
/// inputs without keeping them).
pub fn digest<T: Hash + ?Sized>(value: &T) -> u64 {
    let mut h = DefaultHasher::new();
    value.hash(&mut h);
    h.finish()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_round_trip() {
        for w in Workload::ALL {
            assert_eq!(Workload::parse(w.name()), Some(w));
        }
        assert_eq!(Workload::parse("catalog"), None);
    }

    #[test]
    fn rng_is_deterministic_and_streams_differ() {
        let a: Vec<u64> = (0..4).map(|_| Rng::new(7, 0).next_u64()).collect();
        assert!(a.windows(2).all(|w| w[0] == w[1]));
        assert_ne!(Rng::new(7, 0).next_u64(), Rng::new(7, 1).next_u64());
        assert_ne!(Rng::new(7, 0).next_u64(), Rng::new(8, 0).next_u64());
        let s = Rng::new(3, 0).sample(50, 5);
        assert_eq!(s.len(), 5);
        assert!(s.windows(2).all(|w| w[0] < w[1]) && s[4] < 50);
    }

    #[test]
    fn seed_fixes_inputs_for_every_workload() {
        for w in Workload::ALL {
            let a = Inputs::generate(w, 11).digest();
            assert_eq!(a, Inputs::generate(w, 11).digest(), "{}", w.name());
            assert_ne!(a, Inputs::generate(w, 12).digest(), "{}", w.name());
        }
    }
}
