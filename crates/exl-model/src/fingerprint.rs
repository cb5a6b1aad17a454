//! Content fingerprints for cubes and derivation steps.
//!
//! The incremental recomputation layer keys its cache on *what a cube
//! contains*, not on where it lives: two cubes with the same tuples must
//! produce the same [`Fingerprint`] whether they were built in different
//! insertion orders, deep-copied, or shared through the copy-on-write
//! `Arc` of [`CubeData`]. Likewise a fingerprint must not depend on any
//! interner pool's symbol assignment, so each interned key is hashed as
//! the [`DimValue`] tuple it resolves to ([`DimPool::hash_key`]: strings
//! hash by contents) straight off the key column, without resolving.
//!
//! [`DimValue`]: crate::value::DimValue
//! [`DimPool::hash_key`]: crate::intern::DimPool::hash_key
//!
//! Two combination modes cover the two kinds of identity the cache needs:
//!
//! * [`Fingerprint::of_cube`] folds one 128-bit lane pair per entry with a
//!   *commutative* combine (wrapping addition of avalanche-mixed per-entry
//!   hashes), so hash-map iteration order — which varies with insertion
//!   history — cannot leak into the digest;
//! * [`FingerprintBuilder`] chains parts *in order* (a derivation step is
//!   `lhs := expr` over a specific input list — swapping inputs must change
//!   the key), producing the statement and cache-key fingerprints.
//!
//! Fingerprints are 128 bits (two independently mixed 64-bit lanes) so
//! that accidental collisions are out of reach for any realistic cache
//! population, while staying cheap to compare, copy, and render as a
//! 32-character hex file name for the on-disk store.

use std::fmt;
use std::hash::{Hash, Hasher};
use std::str::FromStr;

use crate::cube::CubeData;
use crate::hash::FxHasher;

/// Lane-separation constants: arbitrary odd 64-bit values XORed into the
/// raw entry hash before mixing, so the two lanes of a [`Fingerprint`]
/// are decorrelated functions of the same input.
const LANE_HI: u64 = 0x9e37_79b9_7f4a_7c15;
const LANE_LO: u64 = 0xc2b2_ae3d_27d4_eb4f;

/// splitmix64 finalizer: a full-avalanche bijection on `u64`. Applied to
/// every per-entry hash before the commutative fold so that low-entropy
/// inputs (small ints, short strings) cannot cancel under addition.
#[inline]
fn mix(mut z: u64) -> u64 {
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// Deterministic 64-bit content hash of any `Hash` value.
#[inline]
fn fx64<T: Hash + ?Sized>(v: &T) -> u64 {
    let mut h = FxHasher::default();
    v.hash(&mut h);
    h.finish()
}

/// A 128-bit content fingerprint (two independently mixed lanes).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Fingerprint {
    /// High lane.
    pub hi: u64,
    /// Low lane.
    pub lo: u64,
}

impl Fingerprint {
    /// The fingerprint of "nothing": empty cube, empty byte string.
    pub const EMPTY: Fingerprint = Fingerprint { hi: 0, lo: 0 };

    /// Fingerprint of a byte string (statement text, version headers).
    pub fn of_bytes(bytes: &[u8]) -> Fingerprint {
        let raw = fx64(bytes);
        Fingerprint {
            hi: mix(raw ^ LANE_HI),
            lo: mix(raw ^ LANE_LO),
        }
    }

    /// Fingerprint of a string's UTF-8 bytes.
    pub fn of_str(s: &str) -> Fingerprint {
        Fingerprint::of_bytes(s.as_bytes())
    }

    /// Order-independent content fingerprint of a cube: per-entry mixed
    /// hashes combined with wrapping addition (commutative and
    /// associative, so any iteration order of the underlying hash map
    /// yields the same digest), with the entry count folded in at the
    /// end. Clones — CoW `Arc` shares and deep copies alike — fingerprint
    /// identically because only `(tuple, bits)` content is hashed.
    pub fn of_cube(cube: &CubeData) -> Fingerprint {
        let pool = cube.pool();
        let mut acc_hi: u64 = 0;
        let mut acc_lo: u64 = 0;
        for (k, v) in cube.batch().iter() {
            // the entry hash of `(&[DimValue], bits)`; measures hash by
            // their bit pattern: the cache promises *bit-identical*
            // replay, so `-0.0` and `+0.0` are distinct here even though
            // the egd check collapses them
            let mut h = FxHasher::default();
            pool.hash_key(k, &mut h);
            v.to_bits().hash(&mut h);
            let raw = h.finish();
            acc_hi = acc_hi.wrapping_add(mix(raw ^ LANE_HI));
            acc_lo = acc_lo.wrapping_add(mix(raw ^ LANE_LO));
        }
        let n = cube.len() as u64;
        Fingerprint {
            hi: mix(acc_hi.wrapping_add(n) ^ LANE_HI),
            lo: mix(acc_lo.wrapping_add(n) ^ LANE_LO),
        }
    }

    /// Render as 32 lowercase hex characters (`hi` then `lo`) — the
    /// on-disk cache file name format.
    pub fn to_hex(self) -> String {
        format!("{:016x}{:016x}", self.hi, self.lo)
    }
}

impl fmt::Display for Fingerprint {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:016x}{:016x}", self.hi, self.lo)
    }
}

impl FromStr for Fingerprint {
    type Err = String;

    fn from_str(s: &str) -> Result<Fingerprint, String> {
        if s.len() != 32 || !s.bytes().all(|b| b.is_ascii_hexdigit()) {
            return Err(format!("invalid fingerprint {s:?}: want 32 hex chars"));
        }
        let hi = u64::from_str_radix(&s[..16], 16).map_err(|e| e.to_string())?;
        let lo = u64::from_str_radix(&s[16..], 16).map_err(|e| e.to_string())?;
        Ok(Fingerprint { hi, lo })
    }
}

impl serde::Serialize for Fingerprint {
    fn serialize<S: serde::Serializer>(&self, serializer: S) -> Result<S::Ok, S::Error> {
        self.to_hex().serialize(serializer)
    }
}

impl<'de> serde::Deserialize<'de> for Fingerprint {
    fn deserialize<D: serde::Deserializer<'de>>(deserializer: D) -> Result<Self, D::Error> {
        let s = String::deserialize(deserializer)?;
        s.parse().map_err(serde::de::Error::custom)
    }
}

/// Order-*dependent* fingerprint accumulator for composite identities:
/// a canonicalized statement plus its target kind, or a cache key of
/// `(statement fp, input cube fps...)`. Each pushed part is chained into
/// both lanes through rotation + remix, so permuting parts changes the
/// result (unlike the commutative cube fold).
#[derive(Debug, Clone)]
pub struct FingerprintBuilder {
    hi: u64,
    lo: u64,
}

impl FingerprintBuilder {
    /// Start a chain seeded with a domain-separation label, so e.g.
    /// statement fingerprints and cache keys built from the same parts
    /// cannot collide.
    pub fn new(label: &str) -> FingerprintBuilder {
        let seed = Fingerprint::of_str(label);
        FingerprintBuilder {
            hi: seed.hi,
            lo: seed.lo,
        }
    }

    /// Chain one fingerprint part, in order.
    pub fn push(&mut self, fp: Fingerprint) -> &mut Self {
        self.hi = mix(self.hi.rotate_left(17) ^ fp.hi ^ LANE_HI);
        self.lo = mix(self.lo.rotate_left(19) ^ fp.lo ^ LANE_LO);
        self
    }

    /// Chain a string part (hashed by contents).
    pub fn push_str(&mut self, s: &str) -> &mut Self {
        self.push(Fingerprint::of_str(s))
    }

    /// Chain a raw integer part (counts, versions).
    pub fn push_u64(&mut self, v: u64) -> &mut Self {
        self.push(Fingerprint {
            hi: mix(v ^ LANE_HI),
            lo: mix(v ^ LANE_LO),
        })
    }

    /// Finish the chain.
    pub fn finish(&self) -> Fingerprint {
        Fingerprint {
            hi: mix(self.hi ^ LANE_LO),
            lo: mix(self.lo ^ LANE_HI),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cube::DimTuple;
    use crate::time::TimePoint;
    use crate::value::DimValue;

    fn entry(i: i64, r: &str, v: f64) -> (DimTuple, f64) {
        (vec![DimValue::Int(i), DimValue::str(r)], v)
    }

    #[test]
    fn cube_fingerprint_ignores_insertion_order() {
        let rows = vec![
            entry(1, "n", 1.5),
            entry(2, "n", -2.0),
            entry(3, "s", 0.25),
            entry(4, "w", 1e9),
        ];
        let fwd = CubeData::from_tuples(rows.clone()).unwrap();
        let rev = CubeData::from_tuples(rows.into_iter().rev()).unwrap();
        assert_eq!(Fingerprint::of_cube(&fwd), Fingerprint::of_cube(&rev));
    }

    #[test]
    fn cube_fingerprint_sees_any_change() {
        let base = CubeData::from_tuples(vec![entry(1, "n", 1.0), entry(2, "s", 2.0)]).unwrap();
        let fp = Fingerprint::of_cube(&base);

        let mut other_measure = base.clone();
        other_measure.insert_overwrite(vec![DimValue::Int(1), DimValue::str("n")], 1.0000001);
        assert_ne!(fp, Fingerprint::of_cube(&other_measure));

        let mut extra = base.clone();
        extra
            .insert(vec![DimValue::Int(9), DimValue::str("n")], 0.0)
            .unwrap();
        assert_ne!(fp, Fingerprint::of_cube(&extra));

        let other_key =
            CubeData::from_tuples(vec![entry(1, "m", 1.0), entry(2, "s", 2.0)]).unwrap();
        assert_ne!(fp, Fingerprint::of_cube(&other_key));
    }

    #[test]
    fn negative_zero_is_distinct() {
        let pos = CubeData::from_tuples(vec![entry(1, "n", 0.0)]).unwrap();
        let neg = CubeData::from_tuples(vec![entry(1, "n", -0.0)]).unwrap();
        assert_ne!(Fingerprint::of_cube(&pos), Fingerprint::of_cube(&neg));
    }

    #[test]
    fn empty_cube_is_stable_and_distinct_from_singleton() {
        assert_eq!(
            Fingerprint::of_cube(&CubeData::new()),
            Fingerprint::of_cube(&CubeData::new())
        );
        let one = CubeData::from_tuples(vec![(vec![DimValue::Int(0)], 0.0)]).unwrap();
        assert_ne!(
            Fingerprint::of_cube(&CubeData::new()),
            Fingerprint::of_cube(&one)
        );
    }

    #[test]
    fn time_values_discriminate() {
        let q1 = CubeData::from_tuples(vec![(
            vec![DimValue::Time(TimePoint::Quarter {
                year: 2020,
                quarter: 1,
            })],
            1.0,
        )])
        .unwrap();
        let q2 = CubeData::from_tuples(vec![(
            vec![DimValue::Time(TimePoint::Quarter {
                year: 2020,
                quarter: 2,
            })],
            1.0,
        )])
        .unwrap();
        assert_ne!(Fingerprint::of_cube(&q1), Fingerprint::of_cube(&q2));
    }

    #[test]
    fn hex_round_trip() {
        let fp = Fingerprint::of_str("GDP := RGDP * PQR;");
        let hex = fp.to_hex();
        assert_eq!(hex.len(), 32);
        assert_eq!(hex.parse::<Fingerprint>().unwrap(), fp);
        assert!("xyz".parse::<Fingerprint>().is_err());
        assert!("g".repeat(32).parse::<Fingerprint>().is_err());
    }

    #[test]
    fn serde_round_trip() {
        let fp = Fingerprint::of_str("cache-key");
        let json = serde_json::to_string(&fp).unwrap();
        let back: Fingerprint = serde_json::from_str(&json).unwrap();
        assert_eq!(fp, back);
    }

    #[test]
    fn builder_is_order_sensitive() {
        let a = Fingerprint::of_str("a");
        let b = Fingerprint::of_str("b");
        let ab = {
            let mut h = FingerprintBuilder::new("k");
            h.push(a).push(b);
            h.finish()
        };
        let ba = {
            let mut h = FingerprintBuilder::new("k");
            h.push(b).push(a);
            h.finish()
        };
        assert_ne!(ab, ba);
        // and label-separated
        let ab2 = {
            let mut h = FingerprintBuilder::new("other");
            h.push(a).push(b);
            h.finish()
        };
        assert_ne!(ab, ab2);
    }

    #[test]
    fn builder_push_variants_discriminate() {
        let mut h1 = FingerprintBuilder::new("k");
        h1.push_str("x").push_u64(1);
        let mut h2 = FingerprintBuilder::new("k");
        h2.push_str("x").push_u64(2);
        assert_ne!(h1.finish(), h2.finish());
    }
}
