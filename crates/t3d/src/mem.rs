//! Distributed, versioned memory.

use ccdp_dist::Layout;
use ccdp_ir::{ArrayId, Program, Sharing};

use crate::config::MAX_PES;

/// The machine's memory: one flat shared word space with per-word versions
/// and owners, plus per-PE private spaces.
///
/// Shared arrays are laid out contiguously (column-major within each array).
/// Versions start at 0 and bump on every write — the substrate of the
/// coherence oracle.
#[derive(Clone)]
pub struct Memory {
    /// Base word address of each array (index by `ArrayId`); shared and
    /// private arrays use separate address spaces but share the base table.
    bases: Vec<usize>,
    shared_values: Vec<f64>,
    shared_versions: Vec<u32>,
    /// Owner PE of each shared word.
    owners: Vec<u8>,
    /// Per-PE private space.
    private_values: Vec<Vec<f64>>,
    /// Is the array shared? (index by `ArrayId`)
    is_shared: Vec<bool>,
}

impl Memory {
    pub fn new(program: &Program, layout: &Layout) -> Memory {
        assert!(layout.n_pes() <= MAX_PES, "owners are u8: at most {MAX_PES} PEs");
        let mut bases = Vec::with_capacity(program.arrays.len());
        let mut is_shared = Vec::with_capacity(program.arrays.len());
        let mut shared_len = 0usize;
        let mut private_len = 0usize;
        for a in &program.arrays {
            match a.sharing {
                Sharing::Shared => {
                    bases.push(shared_len);
                    shared_len += a.len();
                    is_shared.push(true);
                }
                Sharing::Private => {
                    bases.push(private_len);
                    private_len += a.len();
                    is_shared.push(false);
                }
            }
        }
        // Precompute owners, walking each array's coordinate space as an
        // odometer (one reused coords buffer; `delinearize` would allocate a
        // fresh Vec per shared word).
        let mut owners = vec![0u8; shared_len];
        let mut coords: Vec<i64> = Vec::new();
        for a in &program.arrays {
            if a.sharing != Sharing::Shared || a.is_empty() {
                continue;
            }
            let base = bases[a.id.index()];
            coords.clear();
            coords.resize(a.rank(), 0);
            for off in 0..a.len() {
                owners[base + off] = layout.owner(a, &coords) as u8;
                for (c, &e) in coords.iter_mut().zip(&a.extents) {
                    *c += 1;
                    if (*c as usize) < e {
                        break;
                    }
                    *c = 0;
                }
            }
        }
        Memory {
            bases,
            shared_values: vec![0.0; shared_len],
            shared_versions: vec![0; shared_len],
            owners,
            private_values: vec![vec![0.0; private_len]; layout.n_pes()],
            is_shared,
        }
    }

    #[inline]
    pub fn is_shared(&self, a: ArrayId) -> bool {
        self.is_shared[a.index()]
    }

    #[inline]
    pub fn base(&self, a: ArrayId) -> usize {
        self.bases[a.index()]
    }

    #[inline]
    pub fn owner(&self, addr: usize) -> usize {
        self.owners[addr] as usize
    }

    #[inline]
    pub fn read_shared(&self, addr: usize) -> (f64, u32) {
        (self.shared_values[addr], self.shared_versions[addr])
    }

    #[inline]
    pub fn version(&self, addr: usize) -> u32 {
        self.shared_versions[addr]
    }

    #[inline]
    pub fn write_shared(&mut self, addr: usize, v: f64) -> u32 {
        self.shared_values[addr] = v;
        self.shared_versions[addr] += 1;
        self.shared_versions[addr]
    }

    /// Force one shared word to an explicit (value, version) pair. Used by
    /// the epoch-shard merge to copy a worker's final state for the words
    /// that worker wrote; never part of the simulated machine's own
    /// write path (which is [`Memory::write_shared`]).
    #[inline]
    pub(crate) fn set_shared(&mut self, addr: usize, v: f64, ver: u32) {
        self.shared_values[addr] = v;
        self.shared_versions[addr] = ver;
    }

    /// Swap one PE's entire private space with `other`'s (O(1) pointer
    /// swap). The epoch-shard merge uses this to adopt a worker's private
    /// state for the PEs that worker simulated.
    #[inline]
    pub(crate) fn swap_private_space(&mut self, other: &mut Memory, pe: usize) {
        std::mem::swap(&mut self.private_values[pe], &mut other.private_values[pe]);
    }

    #[inline]
    pub fn read_private(&self, pe: usize, addr: usize) -> f64 {
        self.private_values[pe][addr]
    }

    #[inline]
    pub fn write_private(&mut self, pe: usize, addr: usize, v: f64) {
        self.private_values[pe][addr] = v;
    }

    pub fn shared_words(&self) -> usize {
        self.shared_values.len()
    }

    /// The `(value, version)` words of the cache line starting at `base`,
    /// as a fill snapshots them. Words past the end of the shared space
    /// (the tail of the last line) read as `(0.0, 0)`.
    #[inline]
    pub fn line(&self, base: usize, line_words: usize) -> impl Iterator<Item = (f64, u32)> + '_ {
        (base..base + line_words).map(|a| {
            if a < self.shared_words() {
                self.read_shared(a)
            } else {
                (0.0, 0)
            }
        })
    }

    /// Snapshot a shared array's contents (for validation against golden
    /// references).
    pub fn array_values(&self, program: &Program, a: ArrayId) -> Vec<f64> {
        assert!(self.is_shared(a), "array_values reads shared arrays");
        let base = self.base(a);
        let len = program.array(a).len();
        self.shared_values[base..base + len].to_vec()
    }
}

#[cfg(test)]
mod unit {
    use super::*;
    use ccdp_ir::ProgramBuilder;

    fn mk() -> (Program, Layout) {
        let mut pb = ProgramBuilder::new("t");
        let a = pb.shared("A", &[4, 4]);
        let _t = pb.private("T", &[8]);
        let b = pb.shared("B", &[4]);
        pb.serial_epoch("e", |e| {
            e.serial("i", 0, 3, |e, i| {
                e.assign(a.at2(i, 0), b.at1(i).rd());
            });
        });
        let p = pb.finish().unwrap();
        let l = Layout::new(&p, 2);
        (p, l)
    }

    /// The static shard analysis replicates this memory's packing rule to
    /// map sections to shared-space lines; pin the two against each other.
    #[test]
    fn shard_analysis_base_matches_memory_base() {
        let (p, l) = mk();
        let m = Memory::new(&p, &l);
        for a in &p.arrays {
            match ccdp_analysis::shared_base_words(&p, a.id) {
                Some(b) => assert_eq!(b, m.base(a.id), "array {}", a.name),
                None => assert!(!m.is_shared(a.id), "array {}", a.name),
            }
        }
    }

    #[test]
    fn layout_and_versions() {
        let (p, l) = mk();
        let mut m = Memory::new(&p, &l);
        assert_eq!(m.shared_words(), 20);
        let a = p.array_by_name("A").unwrap().id;
        let b = p.array_by_name("B").unwrap().id;
        assert_eq!(m.base(a), 0);
        assert_eq!(m.base(b), 16);
        assert!(m.is_shared(a) && !m.is_shared(p.array_by_name("T").unwrap().id));

        let addr = m.base(b) + 2;
        assert_eq!(m.read_shared(addr), (0.0, 0));
        let v = m.write_shared(addr, 7.5);
        assert_eq!(v, 1);
        assert_eq!(m.read_shared(addr), (7.5, 1));
        // A line running past the 20 shared words reads its tail as zeros.
        let line: Vec<_> = m.line(16, 8).collect();
        assert_eq!(line[2], (7.5, 1));
        assert_eq!(&line[4..], &[(0.0, 0); 4]);
    }

    #[test]
    fn owners_follow_block_distribution() {
        let (p, l) = mk();
        let m = Memory::new(&p, &l);
        let a = p.array_by_name("A").unwrap();
        // Columns 0..1 on PE0, 2..3 on PE1 (block along last dim).
        assert_eq!(m.owner(m.base(a.id) + a.linearize(&[0, 0])), 0);
        assert_eq!(m.owner(m.base(a.id) + a.linearize(&[3, 1])), 0);
        assert_eq!(m.owner(m.base(a.id) + a.linearize(&[0, 2])), 1);
        assert_eq!(m.owner(m.base(a.id) + a.linearize(&[3, 3])), 1);
    }

    #[test]
    fn private_spaces_are_independent() {
        let (p, l) = mk();
        let mut m = Memory::new(&p, &l);
        m.write_private(0, 3, 1.0);
        m.write_private(1, 3, 2.0);
        assert_eq!(m.read_private(0, 3), 1.0);
        assert_eq!(m.read_private(1, 3), 2.0);
    }
}
