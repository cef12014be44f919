//! Shard audit: the run-time oracle for `analysis::shard`, compiled only
//! with the `shard-audit` cargo feature (test builds).
//!
//! On a serial run, [`Recorder`] notes for each static-DOALL instance and
//! each PE the cache lines that PE touched (demand reads and hits, fills,
//! bypass and uncached reads, line-prefetch installs, every vector-staged
//! line, writes) and the lines it wrote. When the instance ends it checks
//! the finest partition (one PE per block): no PE `p < q` wrote a line `q`
//! touched. That is exactly what a `Disjoint` verdict claims.

use std::collections::HashSet;

use ccdp_ir::LoopId;

/// The first cross-PE conflict a serial run witnessed in one loop: PE
/// `writer` wrote shared-memory line `line`, and the later PE `toucher`
/// touched it.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct AuditConflict {
    pub doall: LoopId,
    pub writer: usize,
    pub toucher: usize,
    pub line: u64,
}

/// What a `Simulator::run_shard_audit` run found.
#[derive(Clone, Debug, Default)]
pub struct ShardAudit {
    /// Static-DOALL instances recorded.
    pub instances: u64,
    /// One entry per convicted loop, in first-conviction order.
    pub conflicts: Vec<AuditConflict>,
}

impl ShardAudit {
    pub fn convicts(&self, doall: LoopId) -> bool {
        self.conflicts.iter().any(|c| c.doall == doall)
    }
}

/// Per-PE line sets of the static-DOALL instance being executed.
pub(super) struct Recorder {
    line_words: u64,
    pub(super) current: Option<LoopId>,
    touched: Vec<HashSet<u64>>,
    written: Vec<HashSet<u64>>,
    pub(super) audit: ShardAudit,
}

impl Recorder {
    pub(super) fn new(n_pes: usize, line_words: usize) -> Recorder {
        Recorder {
            line_words: line_words as u64,
            current: None,
            touched: vec![HashSet::new(); n_pes],
            written: vec![HashSet::new(); n_pes],
            audit: ShardAudit::default(),
        }
    }

    pub(super) fn touch(&mut self, pe: usize, addr: usize, write: bool) {
        if self.current.is_some() {
            let line = addr as u64 / self.line_words;
            self.touched[pe].insert(line);
            if write {
                self.written[pe].insert(line);
            }
        }
    }

    /// Close the current instance: check it and clear the line sets.
    pub(super) fn end(&mut self) {
        let Some(doall) = self.current.take() else { return };
        self.audit.instances += 1;
        let mut earlier: HashSet<u64> = HashSet::new();
        for q in 0..self.touched.len() {
            // The smallest shared line keeps the witness deterministic.
            if let Some(&line) = self.touched[q].iter().filter(|l| earlier.contains(l)).min() {
                if !self.audit.convicts(doall) {
                    let writer = (0..q).find(|&p| self.written[p].contains(&line)).unwrap();
                    self.audit.conflicts.push(AuditConflict { doall, writer, toucher: q, line });
                }
                break;
            }
            earlier.extend(&self.written[q]);
        }
        self.touched.iter_mut().chain(&mut self.written).for_each(HashSet::clear);
    }
}
