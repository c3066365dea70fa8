//! A minimal, dependency-free stand-in for the `proptest` property-testing
//! crate, so the workspace's property suites compile and run in offline
//! environments where crates.io is unreachable.
//!
//! It covers exactly the API surface the suites under `tests/` and
//! `crates/*/tests/` use:
//!
//! * the [`proptest!`] macro (with `#![proptest_config(..)]`),
//! * [`prop_assert!`], [`prop_assert_eq!`], [`prop_assume!`],
//! * [`prop_oneof!`] (weighted and unweighted),
//! * [`strategy::Strategy`] with `prop_map` and `prop_recursive`,
//! * [`any`](arbitrary::any), [`Just`](strategy::Just), integer/float ranges, and
//!   string-literal strategies over a `[class]{m,n}` regex subset,
//! * [`collection::vec`], [`collection::btree_map`], [`sample::select`].
//!
//! Unlike real proptest it does **no shrinking** and no failure
//! persistence: a failing case panics, reporting the case index on
//! stderr. Every run is deterministic (the RNG is seeded from the
//! test's name), so a rerun reproduces the failing case exactly.

#![deny(unsafe_code)]

/// Deterministic SplitMix64 generator driving all value generation.
#[derive(Debug, Clone)]
pub struct TestRng {
    state: u64,
}

impl TestRng {
    pub fn new(seed: u64) -> Self {
        Self { state: seed }
    }

    /// Seeds a generator from a test name, so each property gets a
    /// distinct but reproducible stream.
    pub fn for_test(name: &str) -> Self {
        let mut h = 0xcbf2_9ce4_8422_2325u64;
        for b in name.bytes() {
            h ^= b as u64;
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
        Self::new(h)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.state = self.state.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.state;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform value in `[0, bound)`; `bound` must be nonzero.
    pub fn below(&mut self, bound: u64) -> u64 {
        self.next_u64() % bound
    }

    pub fn unit_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }
}

pub mod strategy {
    use super::TestRng;
    use std::rc::Rc;

    /// A generator of values of type `Value`. The shim's strategies only
    /// generate — there is no shrink tree.
    pub trait Strategy {
        type Value;

        fn generate(&self, rng: &mut TestRng) -> Self::Value;

        fn prop_map<U, F>(self, f: F) -> Map<Self, F>
        where
            Self: Sized,
            F: Fn(Self::Value) -> U,
        {
            Map { inner: self, f }
        }

        fn boxed(self) -> BoxedStrategy<Self::Value>
        where
            Self: Sized + 'static,
        {
            BoxedStrategy(Rc::new(move |rng: &mut TestRng| self.generate(rng)))
        }

        /// Builds a recursive strategy: starting from `self` (the leaf),
        /// applies `expand` `depth` times, at each level choosing the
        /// deeper alternative twice as often as the leaf. `desired_size`
        /// and `expected_branch` are accepted for signature compatibility
        /// but unused — recursion is bounded by `depth` alone.
        fn prop_recursive<S, F>(
            self,
            depth: u32,
            _desired_size: u32,
            _expected_branch: u32,
            expand: F,
        ) -> BoxedStrategy<Self::Value>
        where
            Self: Sized + 'static,
            S: Strategy<Value = Self::Value> + 'static,
            F: Fn(BoxedStrategy<Self::Value>) -> S,
        {
            let leaf = self.boxed();
            let mut strat = leaf.clone();
            for _ in 0..depth {
                let deeper = expand(strat).boxed();
                strat = Union::new(vec![(1, leaf.clone()), (2, deeper)]).boxed();
            }
            strat
        }
    }

    /// A clonable, type-erased strategy (the currency of recursion and
    /// `prop_oneof!`).
    pub struct BoxedStrategy<T>(pub(crate) Rc<dyn Fn(&mut TestRng) -> T>);

    impl<T> Clone for BoxedStrategy<T> {
        fn clone(&self) -> Self {
            Self(Rc::clone(&self.0))
        }
    }

    impl<T> Strategy for BoxedStrategy<T> {
        type Value = T;
        fn generate(&self, rng: &mut TestRng) -> T {
            (self.0)(rng)
        }
    }

    /// Always yields a clone of the given value.
    #[derive(Debug, Clone)]
    pub struct Just<T: Clone>(pub T);

    impl<T: Clone> Strategy for Just<T> {
        type Value = T;
        fn generate(&self, _rng: &mut TestRng) -> T {
            self.0.clone()
        }
    }

    /// `prop_map` adapter.
    #[derive(Clone)]
    pub struct Map<S, F> {
        inner: S,
        f: F,
    }

    impl<S, F, U> Strategy for Map<S, F>
    where
        S: Strategy,
        F: Fn(S::Value) -> U,
    {
        type Value = U;
        fn generate(&self, rng: &mut TestRng) -> U {
            (self.f)(self.inner.generate(rng))
        }
    }

    /// Weighted choice between boxed alternatives (`prop_oneof!`).
    pub struct Union<T> {
        arms: Vec<(u32, BoxedStrategy<T>)>,
        total: u64,
    }

    impl<T> Union<T> {
        pub fn new(arms: Vec<(u32, BoxedStrategy<T>)>) -> Self {
            assert!(!arms.is_empty(), "prop_oneof! needs at least one arm");
            let total = arms.iter().map(|(w, _)| *w as u64).sum::<u64>().max(1);
            Self { arms, total }
        }
    }

    impl<T> Strategy for Union<T> {
        type Value = T;
        fn generate(&self, rng: &mut TestRng) -> T {
            let mut pick = rng.below(self.total);
            for (w, strat) in &self.arms {
                if pick < *w as u64 {
                    return strat.generate(rng);
                }
                pick -= *w as u64;
            }
            self.arms[self.arms.len() - 1].1.generate(rng)
        }
    }

    macro_rules! int_range_strategy {
        ($($t:ty),+) => {$(
            impl Strategy for ::std::ops::Range<$t> {
                type Value = $t;
                fn generate(&self, rng: &mut TestRng) -> $t {
                    assert!(self.start < self.end, "empty range strategy");
                    let span = (self.end as i128 - self.start as i128) as u64;
                    (self.start as i128 + rng.below(span) as i128) as $t
                }
            }
        )+};
    }
    int_range_strategy!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize);

    impl Strategy for ::std::ops::Range<f64> {
        type Value = f64;
        fn generate(&self, rng: &mut TestRng) -> f64 {
            self.start + rng.unit_f64() * (self.end - self.start)
        }
    }

    macro_rules! tuple_strategy {
        ($($name:ident),+) => {
            impl<$($name: Strategy),+> Strategy for ($($name,)+) {
                type Value = ($($name::Value,)+);
                #[allow(non_snake_case)]
                fn generate(&self, rng: &mut TestRng) -> Self::Value {
                    let ($($name,)+) = self;
                    ($($name.generate(rng),)+)
                }
            }
        };
    }
    tuple_strategy!(A);
    tuple_strategy!(A, B);
    tuple_strategy!(A, B, C);
    tuple_strategy!(A, B, C, D);
    tuple_strategy!(A, B, C, D, E);

    /// String literals are strategies over a small regex subset: a
    /// sequence of literal chars and `[class]` atoms, each optionally
    /// quantified with `{n}` or `{m,n}`. Classes support ranges (`a-z`),
    /// the escapes `\n`, `\t`, `\\`, and arbitrary unicode members.
    impl Strategy for &'static str {
        type Value = String;
        fn generate(&self, rng: &mut TestRng) -> String {
            super::pattern::generate(self, rng)
        }
    }
}

/// The `[class]{m,n}` pattern generator behind string-literal strategies.
mod pattern {
    use super::TestRng;

    enum Atom {
        Literal(char),
        Class(Vec<(char, char)>),
    }

    struct Piece {
        atom: Atom,
        min: usize,
        max: usize,
    }

    fn parse(pattern: &str) -> Vec<Piece> {
        let chars: Vec<char> = pattern.chars().collect();
        let mut i = 0;
        let mut pieces = Vec::new();
        while i < chars.len() {
            let atom = if chars[i] == '[' {
                i += 1;
                let mut members: Vec<(char, char)> = Vec::new();
                while i < chars.len() && chars[i] != ']' {
                    let lo = if chars[i] == '\\' {
                        i += 1;
                        escape(chars[i])
                    } else {
                        chars[i]
                    };
                    i += 1;
                    // A `-` forms a range unless it is the last member.
                    if i + 1 < chars.len() && chars[i] == '-' && chars[i + 1] != ']' {
                        i += 1;
                        let hi = if chars[i] == '\\' {
                            i += 1;
                            escape(chars[i])
                        } else {
                            chars[i]
                        };
                        i += 1;
                        members.push((lo, hi));
                    } else {
                        members.push((lo, lo));
                    }
                }
                assert!(i < chars.len(), "unterminated class in {pattern:?}");
                i += 1; // ']'
                Atom::Class(members)
            } else {
                let c = if chars[i] == '\\' {
                    i += 1;
                    escape(chars[i])
                } else {
                    assert!(
                        !matches!(chars[i], '.' | '+' | '*' | '?' | '|' | '(' | ')'),
                        "unsupported regex metacharacter {:?} in {pattern:?}: the shim \
                         only generates from literal chars and [class]{{m,n}} atoms",
                        chars[i],
                    );
                    chars[i]
                };
                i += 1;
                Atom::Literal(c)
            };
            let (min, max) = if i < chars.len() && chars[i] == '{' {
                let close = chars[i..]
                    .iter()
                    .position(|&c| c == '}')
                    .expect("unterminated quantifier")
                    + i;
                let body: String = chars[i + 1..close].iter().collect();
                i = close + 1;
                match body.split_once(',') {
                    Some((m, n)) => {
                        let lo: usize = m.trim().parse().expect("bad quantifier");
                        let hi: usize = n.trim().parse().expect("bad quantifier");
                        assert!(lo <= hi, "bad quantifier {{{lo},{hi}}} in {pattern:?}");
                        (lo, hi)
                    }
                    None => {
                        let n = body.trim().parse().expect("bad quantifier");
                        (n, n)
                    }
                }
            } else {
                (1, 1)
            };
            pieces.push(Piece { atom, min, max });
        }
        pieces
    }

    fn escape(c: char) -> char {
        match c {
            'n' => '\n',
            't' => '\t',
            'r' => '\r',
            other => other,
        }
    }

    pub fn generate(pattern: &str, rng: &mut TestRng) -> String {
        let mut out = String::new();
        for piece in parse(pattern) {
            let count = piece.min + rng.below((piece.max - piece.min + 1) as u64) as usize;
            for _ in 0..count {
                match &piece.atom {
                    Atom::Literal(c) => out.push(*c),
                    Atom::Class(members) => {
                        let (lo, hi) = members[rng.below(members.len() as u64) as usize];
                        // Rejection-free: clamp into the valid scalar range.
                        let span = hi as u32 - lo as u32 + 1;
                        let mut code = lo as u32 + rng.below(span as u64) as u32;
                        while char::from_u32(code).is_none() {
                            code -= 1; // skip the surrogate gap downward
                        }
                        out.push(char::from_u32(code).unwrap());
                    }
                }
            }
        }
        out
    }
}

pub mod arbitrary {
    use super::strategy::Strategy;
    use super::TestRng;
    use std::marker::PhantomData;

    /// Types with a canonical full-range strategy (`any::<T>()`).
    pub trait Arbitrary: Sized {
        fn arbitrary_value(rng: &mut TestRng) -> Self;
    }

    macro_rules! arb_int {
        ($($t:ty),+) => {$(
            impl Arbitrary for $t {
                fn arbitrary_value(rng: &mut TestRng) -> $t {
                    rng.next_u64() as $t
                }
            }
        )+};
    }
    arb_int!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize);

    impl Arbitrary for bool {
        fn arbitrary_value(rng: &mut TestRng) -> bool {
            rng.next_u64() & 1 == 1
        }
    }

    /// The strategy returned by [`any`].
    pub struct Any<T>(PhantomData<T>);

    impl<T> Clone for Any<T> {
        fn clone(&self) -> Self {
            Any(PhantomData)
        }
    }

    impl<T: Arbitrary> Strategy for Any<T> {
        type Value = T;
        fn generate(&self, rng: &mut TestRng) -> T {
            T::arbitrary_value(rng)
        }
    }

    pub fn any<T: Arbitrary>() -> Any<T> {
        Any(PhantomData)
    }
}

pub mod collection {
    use super::strategy::Strategy;
    use super::TestRng;
    use std::collections::BTreeMap;
    use std::ops::Range;

    /// Vec of values from `element`, with length drawn from `size`.
    pub fn vec<S: Strategy>(element: S, size: Range<usize>) -> VecStrategy<S> {
        VecStrategy { element, size }
    }

    #[derive(Clone)]
    pub struct VecStrategy<S> {
        element: S,
        size: Range<usize>,
    }

    impl<S: Strategy> Strategy for VecStrategy<S> {
        type Value = Vec<S::Value>;
        fn generate(&self, rng: &mut TestRng) -> Vec<S::Value> {
            let n = self.size.clone().generate(rng);
            (0..n).map(|_| self.element.generate(rng)).collect()
        }
    }

    /// BTreeMap with keys/values from the given strategies. Duplicate
    /// generated keys collapse, so the result may be smaller than drawn.
    pub fn btree_map<K: Strategy, V: Strategy>(
        key: K,
        value: V,
        size: Range<usize>,
    ) -> BTreeMapStrategy<K, V>
    where
        K::Value: Ord,
    {
        BTreeMapStrategy { key, value, size }
    }

    #[derive(Clone)]
    pub struct BTreeMapStrategy<K, V> {
        key: K,
        value: V,
        size: Range<usize>,
    }

    impl<K: Strategy, V: Strategy> Strategy for BTreeMapStrategy<K, V>
    where
        K::Value: Ord,
    {
        type Value = BTreeMap<K::Value, V::Value>;
        fn generate(&self, rng: &mut TestRng) -> Self::Value {
            let n = self.size.clone().generate(rng);
            (0..n)
                .map(|_| (self.key.generate(rng), self.value.generate(rng)))
                .collect()
        }
    }
}

pub mod sample {
    use super::strategy::Strategy;
    use super::TestRng;

    /// Uniform choice from a fixed list.
    pub fn select<T: Clone + 'static>(options: Vec<T>) -> Select<T> {
        assert!(!options.is_empty(), "select from empty list");
        Select { options }
    }

    #[derive(Clone)]
    pub struct Select<T> {
        options: Vec<T>,
    }

    impl<T: Clone> Strategy for Select<T> {
        type Value = T;
        fn generate(&self, rng: &mut TestRng) -> T {
            self.options[rng.below(self.options.len() as u64) as usize].clone()
        }
    }
}

pub mod test_runner {
    /// Runner configuration; only `cases` is honored by the shim.
    #[derive(Debug, Clone)]
    pub struct ProptestConfig {
        /// Number of generated cases per property.
        pub cases: u32,
        /// Accepted for compatibility; the shim never shrinks.
        pub max_shrink_iters: u32,
    }

    impl ProptestConfig {
        pub fn with_cases(cases: u32) -> Self {
            Self {
                cases,
                ..Self::default()
            }
        }
    }

    impl Default for ProptestConfig {
        fn default() -> Self {
            Self {
                cases: 256,
                max_shrink_iters: 0,
            }
        }
    }
}

pub mod prelude {
    pub use crate::arbitrary::any;
    pub use crate::strategy::{BoxedStrategy, Just, Strategy};
    pub use crate::test_runner::ProptestConfig;
    pub use crate::{
        prop_assert, prop_assert_eq, prop_assert_ne, prop_assume, prop_oneof, proptest,
    };

    /// The `prop::` alias real proptest's prelude provides.
    pub mod prop {
        pub use crate::collection;
        pub use crate::sample;
        pub use crate::strategy;
    }
}

/// Fails the current case (panics — the shim does not shrink).
#[macro_export]
macro_rules! prop_assert {
    ($cond:expr) => {
        assert!($cond)
    };
    ($cond:expr, $($fmt:tt)*) => {
        assert!($cond, $($fmt)*)
    };
}

#[macro_export]
macro_rules! prop_assert_eq {
    ($a:expr, $b:expr) => {
        assert_eq!($a, $b)
    };
    ($a:expr, $b:expr, $($fmt:tt)*) => {
        assert_eq!($a, $b, $($fmt)*)
    };
}

#[macro_export]
macro_rules! prop_assert_ne {
    ($a:expr, $b:expr) => {
        assert_ne!($a, $b)
    };
    ($a:expr, $b:expr, $($fmt:tt)*) => {
        assert_ne!($a, $b, $($fmt)*)
    };
}

/// Skips the current case when the assumption does not hold.
#[macro_export]
macro_rules! prop_assume {
    ($cond:expr) => {
        if !$cond {
            return;
        }
    };
    ($cond:expr, $($fmt:tt)*) => {
        if !$cond {
            return;
        }
    };
}

/// Weighted (`w => strat`) or uniform choice between strategies.
#[macro_export]
macro_rules! prop_oneof {
    ($($weight:expr => $strat:expr),+ $(,)?) => {
        $crate::strategy::Union::new(vec![
            $(($weight, $crate::strategy::Strategy::boxed($strat))),+
        ])
    };
    ($($strat:expr),+ $(,)?) => {
        $crate::strategy::Union::new(vec![
            $((1, $crate::strategy::Strategy::boxed($strat))),+
        ])
    };
}

/// Declares property tests. Each `fn name(arg in strategy, ...) { .. }`
/// becomes a `#[test]` that runs `config.cases` generated cases; a
/// failing case panics, reporting its (deterministic) case index.
#[macro_export]
macro_rules! proptest {
    (#![proptest_config($cfg:expr)] $($rest:tt)*) => {
        $crate::proptest!(@fns ($cfg); $($rest)*);
    };
    (@fns ($cfg:expr); ) => {};
    (@fns ($cfg:expr);
        $(#[$attr:meta])*
        fn $name:ident($($arg:ident in $strat:expr),+ $(,)?) $body:block
        $($rest:tt)*
    ) => {
        $(#[$attr])*
        fn $name() {
            let config: $crate::test_runner::ProptestConfig = $cfg;
            let mut rng = $crate::TestRng::for_test(stringify!($name));
            for _case in 0..config.cases {
                $(let $arg = $crate::strategy::Strategy::generate(&($strat), &mut rng);)+
                let case = move || { $body };
                if let Err(payload) =
                    ::std::panic::catch_unwind(::std::panic::AssertUnwindSafe(case))
                {
                    eprintln!(
                        "property {} failed on case {} of {} (deterministic; rerun reproduces)",
                        stringify!($name),
                        _case,
                        config.cases,
                    );
                    ::std::panic::resume_unwind(payload);
                }
            }
        }
        $crate::proptest!(@fns ($cfg); $($rest)*);
    };
    ($($rest:tt)*) => {
        $crate::proptest!(@fns ($crate::test_runner::ProptestConfig::default()); $($rest)*);
    };
}

pub use strategy::Strategy;

/// Smoke checks for the shim itself.
#[cfg(test)]
mod tests {
    use crate::prelude::*;

    #[test]
    fn pattern_subset_generates_in_class() {
        let mut rng = crate::TestRng::new(7);
        for _ in 0..200 {
            let s = "[a-z][a-z0-9-]{0,12}".generate(&mut rng);
            assert!(!s.is_empty() && s.len() <= 13);
            assert!(s.chars().next().unwrap().is_ascii_lowercase());
            assert!(s
                .chars()
                .all(|c| c.is_ascii_lowercase() || c.is_ascii_digit() || c == '-'));
        }
    }

    #[test]
    fn ranges_stay_in_bounds() {
        let mut rng = crate::TestRng::new(11);
        for _ in 0..200 {
            let v = (3u64..9).generate(&mut rng);
            assert!((3..9).contains(&v));
            let f = (0.0f64..1.0).generate(&mut rng);
            assert!((0.0..1.0).contains(&f));
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(32))]

        #[test]
        fn macro_generates_and_runs(v in prop::collection::vec(any::<u8>(), 0..8), s in "[a-c]{2}") {
            prop_assume!(v.len() != 1);
            prop_assert!(v.len() <= 8);
            prop_assert_eq!(s.len(), 2);
        }
    }
}
