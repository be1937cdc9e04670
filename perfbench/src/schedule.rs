//! The request schedule of the `serve-mix` workload, and a model of the
//! daemon's LRU cache that predicts every hit and miss of it.
//!
//! Requests come in ticks, one every `1/tick_rate` seconds. At each tick
//! every connection has one request due, whatever the daemon's state (an
//! open loop). Connection 0 carries the mixed traffic, one request per
//! [`LAYOUT`] letter; every other connection sends a warm `eval` at each
//! tick where connection 0 sends an `eval` or a `neural-eval`, so that warm
//! evals of different clients meet in the daemon's batching window. Every round has the same make-up, so a run of any
//! length attempts whole rounds of the same operations. The seed draws
//! every control.

use meshfree_runtime::Rng64;

/// Connection 0's requests in one round, one letter per tick:
/// `E` warm `eval` with a random control, `Z` warm `eval` with the zero
/// control (checked against the closed-form `J(0)`), `N` `neural-eval` on
/// the surrogate key, `R` short `run`, `C` `eval` on the next cold key of
/// the rotation.
///
/// Warm evals take every other tick, so between two warm lookups on this
/// connection there is one other request, or the burst of five cold keys
/// (`ECCCCCE`). The burst pushes the surrogate key out of the cache, and
/// the `N` after it rebuilds the key and retrains its surrogate: the stall
/// that cold-key bursts cause in the daemon today. Runs sit away from that
/// stall, so their latency is their own work and the warm queue ahead of
/// them.
pub const LAYOUT: &str = "ENENEZENERENENECENENEZENERECCCCCENENEZENENECENERE";

/// Ticks per round.
pub const TICKS: usize = LAYOUT.len();

/// Sine amplitudes of a smooth control `c(x) = Σ a_m sin(mπx)`.
pub type Shape = [f64; 3];

/// What one scheduled request asks for.
#[derive(Debug, Clone, PartialEq)]
pub enum Ask {
    /// `eval` on the warm key.
    Eval(Shape),
    /// `neural-eval` on the surrogate key.
    NeuralEval(Shape),
    /// `run` of short-run variant `v` (see the workload's run table).
    Run(usize),
    /// `eval` on cold key number `k` of the rotation.
    ColdEval(usize, Shape),
}

/// One request of the schedule.
#[derive(Debug, Clone, PartialEq)]
pub struct Due {
    /// Seconds after the schedule starts at which the request is due.
    pub at_s: f64,
    /// Connection that sends it.
    pub conn: usize,
    /// The request.
    pub ask: Ask,
}

/// Builds `rounds` rounds at `tick_rate` ticks per second over `conns`
/// connections, in due order. The same arguments always give the same
/// schedule.
pub fn build(
    seed: u64,
    rounds: usize,
    tick_rate: f64,
    conns: usize,
    run_variants: usize,
) -> Vec<Due> {
    let mut rng = Rng64::seed_from_u64(seed ^ 0x5e7e_d5c4_ed01_e000);
    let shape = |rng: &mut Rng64| -> Shape {
        let mut a = [0.0; 3];
        rng.fill_uniform(&mut a, -0.5..0.5);
        a
    };
    let conns = conns.max(1);
    let mut out = Vec::with_capacity(rounds * TICKS * conns);
    let (mut cold_turn, mut run_turn) = (0usize, 0usize);
    for tick in 0..rounds * TICKS {
        let at_s = tick as f64 / tick_rate;
        let ask = match LAYOUT.as_bytes()[tick % TICKS] {
            b'E' => Ask::Eval(shape(&mut rng)),
            b'Z' => Ask::Eval([0.0; 3]),
            b'N' => Ask::NeuralEval(shape(&mut rng)),
            b'R' => {
                run_turn += 1;
                Ask::Run((run_turn - 1) % run_variants.max(1))
            }
            b'C' => {
                cold_turn += 1;
                Ask::ColdEval(cold_turn - 1, shape(&mut rng))
            }
            other => unreachable!("layout letter {}", other as char),
        };
        // The other connections stay quiet while connection 0 runs or
        // builds, so those take the same cores in every round.
        let quiet = matches!(ask, Ask::Run(_) | Ask::ColdEval(..));
        out.push(Due { at_s, conn: 0, ask });
        for conn in (1..conns).filter(|_| !quiet) {
            out.push(Due {
                at_s,
                conn,
                ask: Ask::Eval(shape(&mut rng)),
            });
        }
    }
    out
}

/// Control values of `shape` at the nodes `xs`.
pub fn control(shape: &Shape, xs: &[f64]) -> linalg::DVec {
    use std::f64::consts::PI;
    linalg::DVec(
        xs.iter()
            .map(|&x| {
                shape
                    .iter()
                    .enumerate()
                    .map(|(m, a)| a * ((m + 1) as f64 * PI * x).sin())
                    .sum()
            })
            .collect(),
    )
}

/// What the model says one lookup does.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Step {
    pub hit: bool,
    /// Keys evicted by this lookup, in eviction order.
    pub evicted: Vec<usize>,
}

/// Strict least-recently-used cache of keys `0..bytes.len()` with a byte
/// budget, as the daemon's `FactorCache` keeps it: a miss inserts the key
/// if it fits the budget at all, then evicts the least recently used
/// other keys until the resident bytes are within the budget. Returns
/// one step per lookup of `seq`.
pub fn lru_model(seq: &[usize], bytes: &[usize], budget: usize) -> Vec<Step> {
    // (key, last use) of the resident keys.
    let mut resident: Vec<(usize, usize)> = Vec::new();
    let mut used = 0usize;
    seq.iter()
        .enumerate()
        .map(|(t, &key)| {
            if let Some(e) = resident.iter_mut().find(|e| e.0 == key) {
                e.1 = t;
                return Step {
                    hit: true,
                    evicted: Vec::new(),
                };
            }
            let mut evicted = Vec::new();
            if bytes[key] <= budget {
                resident.push((key, t));
                used += bytes[key];
                while used > budget {
                    let lru = (0..resident.len())
                        .min_by_key(|&i| resident[i].1)
                        .expect("over budget implies a resident key");
                    let (k, _) = resident.remove(lru);
                    used -= bytes[k];
                    evicted.push(k);
                }
            }
            Step {
                hit: false,
                evicted,
            }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_gives_the_same_schedule() {
        assert_eq!(build(7, 5, 30.0, 2, 2), build(7, 5, 30.0, 2, 2));
        assert_ne!(build(7, 5, 30.0, 2, 2), build(8, 5, 30.0, 2, 2));
    }

    #[test]
    fn every_round_has_the_same_make_up_at_a_fixed_rate() {
        let conns = 3;
        let s = build(3, 4, 25.0, conns, 2);
        let letters = |c: u8| LAYOUT.bytes().filter(|&b| b == c).count();
        let joined = letters(b'E') + letters(b'Z') + letters(b'N');
        let per_round = TICKS + joined * (conns - 1);
        assert_eq!(s.len(), 4 * per_round);
        for round in s.chunks(per_round) {
            let count = |f: fn(&Ask) -> bool| round.iter().filter(|d| f(&d.ask)).count();
            assert_eq!(
                count(|a| matches!(a, Ask::Eval(sh) if *sh == [0.0; 3])),
                letters(b'Z')
            );
            assert_eq!(
                count(|a| matches!(a, Ask::Eval(_))),
                letters(b'E') + letters(b'Z') + joined * (conns - 1)
            );
            assert_eq!(count(|a| matches!(a, Ask::NeuralEval(_))), letters(b'N'));
            assert_eq!(count(|a| matches!(a, Ask::Run(_))), letters(b'R'));
            assert_eq!(count(|a| matches!(a, Ask::ColdEval(..))), letters(b'C'));
            // Only connection 0 sends anything but warm evals.
            assert!(round
                .iter()
                .all(|d| d.conn == 0 || matches!(d.ask, Ask::Eval(_))));
        }
        // Due times follow the ticks; the other connections send only
        // alongside connection 0's evals and neural-evals.
        for (tick, letter) in LAYOUT.bytes().enumerate() {
            let at = s.iter().filter(|d| d.at_s == tick as f64 / 25.0);
            let conns_due: Vec<usize> = at.map(|d| d.conn).collect();
            if b"EZN".contains(&letter) {
                assert_eq!(conns_due, (0..conns).collect::<Vec<_>>());
            } else {
                assert_eq!(conns_due, [0]);
            }
        }
        assert!(s.windows(2).all(|w| w[0].at_s <= w[1].at_s));
    }

    #[test]
    fn the_layout_keeps_a_warm_lookup_around_each_other_request() {
        let b = LAYOUT.as_bytes();
        assert!(b.iter().all(|c| b"EZNRC".contains(c)));
        // Rounds follow one another, so the layout wraps.
        for i in 0..TICKS {
            let warm = |c: u8| c == b'E' || c == b'Z';
            if !warm(b[i]) && b[i] != b'C' {
                assert!(warm(b[(i + TICKS - 1) % TICKS]) && warm(b[(i + 1) % TICKS]));
            }
        }
        assert!(LAYOUT.contains("ECCCCCEN"), "one burst, then a neural-eval");
    }

    #[test]
    fn lru_model_evicts_least_recently_used_first() {
        // Keys 0, 1, 2 of 4, 3 and 3 bytes under a budget of 7.
        let steps = lru_model(&[0, 1, 0, 2, 1], &[4, 3, 3], 7);
        let hits: Vec<bool> = steps.iter().map(|s| s.hit).collect();
        assert_eq!(hits, [false, false, true, false, false]);
        // Key 2 pushes out 1 (0 was used after it); key 1 then pushes out 0.
        assert_eq!(steps[3].evicted, [1]);
        assert_eq!(steps[4].evicted, [0]);
        // A key larger than the budget is served but not kept.
        let steps = lru_model(&[0, 1, 1], &[2, 9], 4);
        assert_eq!(
            steps[1],
            Step {
                hit: false,
                evicted: vec![]
            }
        );
        assert!(!steps[2].hit);
    }
}
