//! Input generation: the benchmark's own PRNG and the request mixes.
//!
//! Everything a workload sends — the op sequence, ids, titles, bodies —
//! is a function of `--seed` alone; the system under test receives only
//! the generated requests.

use aire::http::{HttpRequest, Method, Url};
use aire::types::{jv, Jv};

/// Questions seeded into askbot before any timed phase (each with one
/// answer).
pub const SEEDED_QUESTIONS: u64 = 100;

/// Votes land on this many questions, so their version chains grow long.
const HOT_QUESTIONS: u64 = 8;

/// SplitMix64. Kept private to the benchmark so a change to the
/// repository's own generator cannot silently change the inputs.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    /// An independent stream for one client of a workload.
    pub fn stream(seed: u64, lane: u64) -> Rng {
        let mut r = Rng(seed ^ lane.wrapping_mul(0xA24B_AED4_963E_E407));
        r.next();
        Rng(r.next())
    }

    pub fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, bound)` (bias below 2^-40 for the bounds used).
    pub fn below(&mut self, bound: u64) -> u64 {
        ((u128::from(self.next()) * u128::from(bound)) >> 64) as u64
    }

    /// A lowercase word of `len` letters.
    pub fn word(&mut self, len: usize) -> String {
        (0..len)
            .map(|_| char::from(b'a' + self.below(26) as u8))
            .collect()
    }

    /// `words` space-separated words — question bodies and answers.
    pub fn text(&mut self, words: usize) -> String {
        let mut out = String::new();
        for i in 0..words {
            if i > 0 {
                out.push(' ');
            }
            let len = 3 + self.below(6) as usize;
            out.push_str(&self.word(len));
        }
        out
    }
}

/// One askbot operation a client issues.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Op {
    /// `GET /questions/<id>` — detail view with its answers.
    Show { id: u64 },
    /// `GET /questions` — the full list.
    List,
    /// `POST /questions/new` without code.
    PostPlain { title: String, body: String },
    /// `POST /questions/new` with a fenced snippet: askbot cross-posts
    /// it to dpaste before answering.
    PostCode { title: String, body: String },
    /// `POST /questions/<id>/answer`.
    Answer { id: u64, body: String },
    /// `POST /questions/<id>/vote`.
    Vote { id: u64, delta: i64 },
}

/// The op kinds, in the order per-kind metrics are reported.
pub const OP_KINDS: [&str; 6] = ["show", "list", "post_plain", "post_code", "answer", "vote"];

impl Op {
    pub fn kind(&self) -> usize {
        match self {
            Op::Show { .. } => 0,
            Op::List => 1,
            Op::PostPlain { .. } => 2,
            Op::PostCode { .. } => 3,
            Op::Answer { .. } => 4,
            Op::Vote { .. } => 5,
        }
    }

    /// The request this op sends (cookies are the client's business).
    pub fn request(&self) -> HttpRequest {
        let askbot = |path: String| Url::service("askbot", path);
        match self {
            Op::Show { id } => HttpRequest::new(Method::Get, askbot(format!("/questions/{id}"))),
            Op::List => HttpRequest::new(Method::Get, askbot("/questions".to_string())),
            Op::PostPlain { title, body } | Op::PostCode { title, body } => HttpRequest::post(
                askbot("/questions/new".to_string()),
                jv!({"title": title.clone(), "body": body.clone()}),
            ),
            Op::Answer { id, body } => HttpRequest::post(
                askbot(format!("/questions/{id}/answer")),
                jv!({"body": body.clone()}),
            ),
            Op::Vote { id, delta } => HttpRequest::post(
                askbot(format!("/questions/{id}/vote")),
                jv!({"delta": Jv::i(*delta)}),
            ),
        }
    }
}

/// Which traffic mix a client draws from.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Mix {
    /// 80 % detail views of seeded questions, 20 % full lists.
    Read,
    /// Detail views only — the foreground of `cluster_recover`, whose
    /// requests must stay outside every attack's taint (a list read
    /// during an incident would itself need repair, and how many fall
    /// in the window depends on timing).
    ReadDetail,
    /// 25 % code question, 25 % plain question, 25 % answer, 25 % vote
    /// on a skewed hot set.
    Write,
}

/// A seeded, endless op stream for one client.
#[derive(Debug, Clone)]
pub struct OpStream {
    mix: Mix,
    rng: Rng,
    lane: u64,
    issued: u64,
}

impl OpStream {
    pub fn new(mix: Mix, seed: u64, lane: u64) -> OpStream {
        OpStream {
            mix,
            rng: Rng::stream(seed, lane),
            lane,
            issued: 0,
        }
    }

    fn seeded_id(&mut self) -> u64 {
        1 + self.rng.below(SEEDED_QUESTIONS)
    }

    fn title(&mut self) -> String {
        // Lane and counter make titles unique; the word makes them
        // seed-dependent.
        format!("w{}-{}-{}", self.lane, self.issued, self.rng.word(8))
    }

    pub fn next_op(&mut self) -> Op {
        self.issued += 1;
        match self.mix {
            Mix::Read => {
                if self.rng.below(5) == 0 {
                    Op::List
                } else {
                    Op::Show {
                        id: self.seeded_id(),
                    }
                }
            }
            Mix::ReadDetail => Op::Show {
                id: self.seeded_id(),
            },
            Mix::Write => match self.rng.below(4) {
                0 => {
                    let title = self.title();
                    let snippet = self.rng.text(6);
                    let body = format!("{} ```{snippet}``` {}", self.rng.text(8), self.rng.text(4));
                    Op::PostCode { title, body }
                }
                1 => Op::PostPlain {
                    title: self.title(),
                    body: self.rng.text(16),
                },
                2 => Op::Answer {
                    id: self.seeded_id(),
                    body: self.rng.text(12),
                },
                _ => {
                    // The smaller of two draws: question 1 is hit about
                    // a quarter of the time, question 8 about 1/64th.
                    let id = 1 + self
                        .rng
                        .below(HOT_QUESTIONS)
                        .min(self.rng.below(HOT_QUESTIONS));
                    let delta = if self.rng.below(4) == 0 { -1 } else { 1 };
                    Op::Vote { id, delta }
                }
            },
        }
    }
}

/// The title of seeded question `i` (1-based) — reads check for it.
pub fn seeded_title(seed: u64, i: u64) -> String {
    format!("seed-{i}-{}", Rng::stream(seed, 0x5EED_0000 + i).word(6))
}

pub fn seeded_body(seed: u64, i: u64) -> String {
    Rng::stream(seed, 0xB0D1_0000 + i).text(14)
}

pub fn seeded_answer(seed: u64, i: u64) -> String {
    Rng::stream(seed, 0xA115_0000 + i).text(10)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn take(mix: Mix, seed: u64, lane: u64, n: usize) -> Vec<Op> {
        let mut s = OpStream::new(mix, seed, lane);
        (0..n).map(|_| s.next_op()).collect()
    }

    #[test]
    fn the_same_seed_gives_the_same_op_sequence() {
        for mix in [Mix::Read, Mix::ReadDetail, Mix::Write] {
            assert_eq!(take(mix, 42, 1, 500), take(mix, 42, 1, 500));
            assert_ne!(take(mix, 42, 1, 500), take(mix, 43, 1, 500));
            assert_ne!(take(mix, 42, 1, 500), take(mix, 42, 2, 500));
        }
        assert_eq!(seeded_title(7, 3), seeded_title(7, 3));
        assert_ne!(seeded_title(7, 3), seeded_title(8, 3));
    }

    #[test]
    fn mixes_have_the_stated_proportions() {
        let ops = take(Mix::Read, 1, 0, 20_000);
        let lists = ops.iter().filter(|o| **o == Op::List).count();
        assert!((3_600..4_400).contains(&lists), "{lists} lists of 20000");
        assert!(ops.iter().all(|o| match o {
            Op::Show { id } => (1..=SEEDED_QUESTIONS).contains(id),
            Op::List => true,
            _ => false,
        }));

        let mut per_kind = [0usize; 6];
        let mut hot = [0usize; HOT_QUESTIONS as usize + 1];
        for op in take(Mix::Write, 1, 0, 20_000) {
            per_kind[op.kind()] += 1;
            if let Op::Vote { id, .. } = op {
                hot[id as usize] += 1;
            }
        }
        assert_eq!(per_kind[0] + per_kind[1], 0, "the write mix never reads");
        for k in 2..6 {
            assert!((4_500..5_500).contains(&per_kind[k]), "{per_kind:?}");
        }
        assert!(
            hot[1] > 4 * hot[HOT_QUESTIONS as usize],
            "votes are skewed: {hot:?}"
        );

        assert!(take(Mix::ReadDetail, 1, 0, 1_000)
            .iter()
            .all(|o| matches!(o, Op::Show { .. })));
    }

    #[test]
    fn code_posts_carry_a_fence_and_plain_posts_do_not() {
        for op in take(Mix::Write, 9, 0, 400) {
            match op {
                Op::PostCode { body, .. } => assert_eq!(body.matches("```").count(), 2),
                Op::PostPlain { body, .. } => assert!(!body.contains("```")),
                _ => {}
            }
        }
    }
}
