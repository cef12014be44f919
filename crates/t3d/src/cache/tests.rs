//! Property test: the direct-mapped cache against a naive reference model.

use super::{Cache, LineState};
use proptest::prelude::*;
use std::collections::HashMap;

/// Reference model: direct-mapped eviction emulated by keying on the index.
/// A line's protocol state lives in its entry, so it leaves with the line.
type RefLine = (u64, u32, u64, Vec<f64>, Vec<u32>, LineState);

struct RefModel {
    lines: HashMap<usize, RefLine>,
    n_lines: usize,
    line_words: usize,
}

impl RefModel {
    fn new(n_lines: usize, line_words: usize) -> Self {
        RefModel { lines: HashMap::new(), n_lines, line_words }
    }

    fn index(&self, la: u64) -> usize {
        (la as usize) % self.n_lines
    }

    fn install(&mut self, addr: usize, phase: u32, ready: u64, base_val: f64) {
        let la = (addr / self.line_words) as u64;
        let vals: Vec<f64> = (0..self.line_words).map(|k| base_val + k as f64).collect();
        let vers: Vec<u32> = (0..self.line_words).map(|k| k as u32 + 1).collect();
        self.lines.insert(self.index(la), (la, phase, ready, vals, vers, LineState::Exclusive));
    }

    fn lookup(&self, addr: usize) -> Option<(u32, u64, f64, u32, LineState)> {
        let la = (addr / self.line_words) as u64;
        let (tag, phase, ready, vals, vers, state) = self.lines.get(&self.index(la))?;
        if *tag != la {
            return None;
        }
        let off = addr % self.line_words;
        Some((*phase, *ready, vals[off], vers[off], *state))
    }

    fn set_state(&mut self, addr: usize, st: LineState) {
        let la = (addr / self.line_words) as u64;
        let idx = self.index(la);
        if let Some((tag, .., state)) = self.lines.get_mut(&idx) {
            if *tag == la {
                *state = st;
            }
        }
    }

    fn update(&mut self, addr: usize, v: f64, ver: u32) {
        let la = (addr / self.line_words) as u64;
        let idx = self.index(la);
        if let Some((tag, _, _, vals, vers, _)) = self.lines.get_mut(&idx) {
            if *tag == la {
                let off = addr % self.line_words;
                vals[off] = v;
                vers[off] = ver;
            }
        }
    }

    fn invalidate(&mut self, addr: usize) {
        let la = (addr / self.line_words) as u64;
        let idx = self.index(la);
        if self.lines.get(&idx).is_some_and(|(tag, ..)| *tag == la) {
            self.lines.remove(&idx);
        }
    }
}

#[derive(Clone, Debug)]
enum Op {
    Install { addr: usize, phase: u32, ready: u64, base: u32 },
    Update { addr: usize, val: u32, ver: u32 },
    Invalidate { addr: usize },
    SetState { addr: usize, state: LineState },
    Lookup { addr: usize },
}

fn arb_state() -> impl Strategy<Value = LineState> {
    prop_oneof![
        Just(LineState::Exclusive),
        Just(LineState::Shared),
        Just(LineState::SharedModified),
        Just(LineState::Modified),
    ]
}

fn arb_op(space: usize) -> impl Strategy<Value = Op> {
    prop_oneof![
        (0..space, 0u32..5, 0u64..100, 0u32..50).prop_map(|(addr, phase, ready, base)| {
            Op::Install { addr, phase, ready, base }
        }),
        (0..space, 0u32..100, 1u32..20)
            .prop_map(|(addr, val, ver)| Op::Update { addr, val, ver }),
        (0..space).prop_map(|addr| Op::Invalidate { addr }),
        (0..space, arb_state()).prop_map(|(addr, state)| Op::SetState { addr, state }),
        (0..space).prop_map(|addr| Op::Lookup { addr }),
    ]
}

proptest! {
    #[test]
    fn cache_matches_reference_model(
        ops in proptest::collection::vec(arb_op(256), 1..200),
    ) {
        let (n_lines, line_words) = (8usize, 4usize);
        let mut cache = Cache::new(n_lines, line_words);
        let mut model = RefModel::new(n_lines, line_words);
        for op in ops {
            match op {
                Op::Install { addr, phase, ready, base } => {
                    let words =
                        (0..line_words).map(|k| (base as f64 + k as f64, k as u32 + 1));
                    cache.install(addr, phase, ready, words);
                    model.install(addr, phase, ready, base as f64);
                }
                Op::Update { addr, val, ver } => {
                    cache.update_word(addr, val as f64, ver);
                    model.update(addr, val as f64, ver);
                }
                Op::Invalidate { addr } => {
                    cache.invalidate(addr);
                    model.invalidate(addr);
                }
                Op::SetState { addr, state } => {
                    if let Some(h) = cache.lookup(addr) {
                        cache.set_state(h.line, state);
                    }
                    model.set_state(addr, state);
                }
                Op::Lookup { addr } => {
                    let got = cache.lookup(addr).map(|h| {
                        let (v, ver) = cache.read(h.line, addr);
                        (h.filled_phase, h.ready_at, v, ver, h.state)
                    });
                    prop_assert_eq!(got, model.lookup(addr), "addr {}", addr);
                }
            }
        }
    }
}
