//! A minimal, dependency-free stand-in for the `criterion` benchmark
//! harness, so the `aire-bench` benches compile and run in offline
//! environments where crates.io is unreachable.
//!
//! It implements exactly the API surface the benches in
//! `crates/bench/benches/` use — `criterion_group!`/`criterion_main!`,
//! [`Criterion::benchmark_group`], [`BenchmarkGroup::bench_function`],
//! [`BenchmarkGroup::bench_with_input`], [`Bencher::iter`] and
//! [`Bencher::iter_batched`] — and reports mean wall-clock time per
//! iteration. It performs no statistical analysis, outlier rejection, or
//! HTML reporting; numbers from it are indicative, not rigorous.

#![deny(unsafe_code)]

use std::fmt;
use std::hint;
use std::time::{Duration, Instant};

/// Prevents the optimizer from eliding a benchmarked computation.
pub fn black_box<T>(value: T) -> T {
    hint::black_box(value)
}

/// Sizing hint for [`Bencher::iter_batched`]. The shim runs one routine
/// call per setup regardless, so the variants only document intent.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BatchSize {
    SmallInput,
    LargeInput,
    PerIteration,
}

/// A parameterized benchmark name, e.g. `scaling_users/64`.
#[derive(Debug, Clone)]
pub struct BenchmarkId {
    id: String,
}

impl BenchmarkId {
    pub fn new(function: impl fmt::Display, parameter: impl fmt::Display) -> Self {
        Self {
            id: format!("{function}/{parameter}"),
        }
    }

    pub fn from_parameter(parameter: impl fmt::Display) -> Self {
        Self {
            id: parameter.to_string(),
        }
    }
}

impl fmt::Display for BenchmarkId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.id)
    }
}

/// The top-level harness handle passed to each bench function.
#[derive(Debug)]
pub struct Criterion {
    sample_size: usize,
}

impl Default for Criterion {
    fn default() -> Self {
        Self::new()
    }
}

impl Criterion {
    pub fn new() -> Self {
        Self {
            sample_size: DEFAULT_SAMPLE_SIZE,
        }
    }

    /// Global default sample size; groups may override.
    pub fn sample_size(mut self, n: usize) -> Self {
        self.sample_size = n.max(1);
        self
    }

    pub fn benchmark_group(&mut self, name: impl fmt::Display) -> BenchmarkGroup<'_> {
        println!("group: {name}");
        BenchmarkGroup {
            sample_size: self.sample_size,
            _criterion: self,
        }
    }

    pub fn bench_function<F>(&mut self, name: impl fmt::Display, f: F) -> &mut Self
    where
        F: FnMut(&mut Bencher),
    {
        run_benchmark(&name.to_string(), self.sample_size, f);
        self
    }
}

const DEFAULT_SAMPLE_SIZE: usize = 10;

/// A named group of related benchmarks sharing a sample size.
pub struct BenchmarkGroup<'a> {
    sample_size: usize,
    _criterion: &'a mut Criterion,
}

impl BenchmarkGroup<'_> {
    pub fn sample_size(&mut self, n: usize) -> &mut Self {
        self.sample_size = n.max(1);
        self
    }

    pub fn bench_function<F>(&mut self, name: impl fmt::Display, f: F) -> &mut Self
    where
        F: FnMut(&mut Bencher),
    {
        run_benchmark(&name.to_string(), self.sample_size, f);
        self
    }

    pub fn bench_with_input<I, F>(&mut self, id: BenchmarkId, input: &I, mut f: F) -> &mut Self
    where
        I: ?Sized,
        F: FnMut(&mut Bencher, &I),
    {
        run_benchmark(&id.to_string(), self.sample_size, |b| f(b, input));
        self
    }

    pub fn finish(self) {}
}

fn run_benchmark<F>(name: &str, samples: usize, mut f: F)
where
    F: FnMut(&mut Bencher),
{
    let mut bencher = Bencher {
        samples,
        total: Duration::ZERO,
        iterations: 0,
    };
    f(&mut bencher);
    let mean = if bencher.iterations == 0 {
        Duration::ZERO
    } else {
        bencher.total / bencher.iterations as u32
    };
    println!(
        "  {name}: {mean:?}/iter over {} iterations",
        bencher.iterations
    );
}

/// Passed to the closure given to `bench_function`; runs and times the
/// measured routine.
pub struct Bencher {
    samples: usize,
    total: Duration,
    iterations: u64,
}

impl Bencher {
    pub fn iter<O, F>(&mut self, mut routine: F)
    where
        F: FnMut() -> O,
    {
        for _ in 0..self.samples {
            let start = Instant::now();
            black_box(routine());
            self.total += start.elapsed();
            self.iterations += 1;
        }
    }

    pub fn iter_batched<I, O, S, F>(&mut self, mut setup: S, mut routine: F, _size: BatchSize)
    where
        S: FnMut() -> I,
        F: FnMut(I) -> O,
    {
        for _ in 0..self.samples {
            let input = setup();
            let start = Instant::now();
            black_box(routine(input));
            self.total += start.elapsed();
            self.iterations += 1;
        }
    }
}

/// Declares a benchmark group function named `$name` that runs each
/// listed bench function with a fresh [`Criterion`].
#[macro_export]
macro_rules! criterion_group {
    ($name:ident, $($target:path),+ $(,)?) => {
        pub fn $name() {
            let mut criterion = $crate::Criterion::new();
            $( $target(&mut criterion); )+
        }
    };
}

/// Declares `main`, running each listed group.
#[macro_export]
macro_rules! criterion_main {
    ($($group:path),+ $(,)?) => {
        fn main() {
            $( $group(); )+
        }
    };
}
