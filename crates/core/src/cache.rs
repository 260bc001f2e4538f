//! Cache geometry and the derived loop blocking parameters.
//!
//! The Goto algorithm's `kc`, `mc`, `nc` are cache-capacity driven (§2.2,
//! §5.5: "to adapt to different cache sizes, we can adjust the values of
//! mc, nc and kc"): the packed `kc x nr` B panel should live in L1 across
//! its reuse, the `mc x kc` A block in L2, and the `kc x nc` B region in
//! the LLC. We target half of each level to leave room for the other
//! operands and the streaming C traffic, then round to the multiples of
//! the dispatched kernel set's register tile.

/// FNV-1a offset basis (64-bit).
pub(crate) const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
/// FNV-1a prime (64-bit).
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

/// Folds one `u64` word into an FNV-1a-style accumulator — xor, then one
/// multiply by the FNV prime, a word at a time rather than a byte at a
/// time (the fingerprint sits on every plan lookup). Used for the
/// configuration fingerprints that key the plan cache: unlike
/// `DefaultHasher` it is specified on values, not bytes, so fingerprints
/// are stable across processes, toolchain versions and endianness — a
/// requirement for persisted plan profiles. Each step is a bijection of
/// the accumulator and of the word, so two configurations that differ in
/// one knob never collide.
pub(crate) fn fnv1a_u64(h: &mut u64, x: u64) {
    *h = (*h ^ x).wrapping_mul(FNV_PRIME);
}

/// Sizes of the data-cache hierarchy in bytes. `l3 = 0` means no LLC
/// (Phytium 2000+ in the paper's Table 1 has none).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct CacheParams {
    /// Per-core L1 data cache capacity in bytes.
    pub l1: usize,
    /// L2 capacity in bytes (per core or per cluster).
    pub l2: usize,
    /// Last-level cache capacity in bytes; 0 if absent.
    pub l3: usize,
}

impl CacheParams {
    /// A conservative default (32 KiB / 512 KiB / 32 MiB) used when
    /// detection fails.
    pub const fn fallback() -> Self {
        Self {
            l1: 32 * 1024,
            l2: 512 * 1024,
            l3: 32 * 1024 * 1024,
        }
    }

    /// Reads the host cache hierarchy from
    /// `/sys/devices/system/cpu/cpu0/cache`, falling back to
    /// [`CacheParams::fallback`] for any level that cannot be read.
    /// The result is memoized: detection costs a handful of file reads,
    /// which would dominate a 5x5x5 GEMM if paid per call.
    pub fn detect() -> Self {
        static DETECTED: std::sync::OnceLock<CacheParams> = std::sync::OnceLock::new();
        *DETECTED.get_or_init(Self::detect_uncached)
    }

    /// Uncached sysfs probe (see [`CacheParams::detect`]).
    pub fn detect_uncached() -> Self {
        let mut p = Self::fallback();
        let base = "/sys/devices/system/cpu/cpu0/cache";
        let Ok(entries) = std::fs::read_dir(base) else {
            return p;
        };
        for e in entries.flatten() {
            let dir = e.path();
            let read = |f: &str| std::fs::read_to_string(dir.join(f)).ok();
            let (Some(level), Some(ty), Some(size)) = (read("level"), read("type"), read("size"))
            else {
                continue;
            };
            let ty = ty.trim();
            if ty != "Data" && ty != "Unified" {
                continue;
            }
            let Some(bytes) = parse_size(size.trim()) else {
                continue;
            };
            match level.trim() {
                "1" => p.l1 = bytes,
                "2" => p.l2 = bytes,
                // Without an exposed index3 the fallback L3 stays rather
                // than claiming none: such hosts still have DRAM-backed
                // room for a large nc.
                "3" => p.l3 = bytes,
                _ => {}
            }
        }
        p.sanitized()
    }

    /// Repairs nonsensical hierarchies per level instead of letting them
    /// poison `BlockSizes::derive` (virtualized sysfs is a common source:
    /// a zero L1 yields `kc` floor-clamped from 0, an inverted L2 < L1
    /// yields an `mc` smaller than one register tile). A zero or missing
    /// level falls back level-wise; an L2 below L1 is raised to the
    /// fallback L2 (at least L1); an L3 below L2 is treated as absent,
    /// so [`CacheParams::llc`] degrades to L2.
    pub fn sanitized(mut self) -> Self {
        let fb = Self::fallback();
        if self.l1 == 0 {
            self.l1 = fb.l1;
        }
        if self.l2 < self.l1 {
            self.l2 = fb.l2.max(self.l1);
        }
        if self.l3 != 0 && self.l3 < self.l2 {
            self.l3 = 0;
        }
        self
    }

    /// Stable 64-bit fingerprint of the hierarchy (`fnv1a_u64` over the
    /// level capacities). Any size change changes the fingerprint; the
    /// value is identical across processes for equal hierarchies, so it
    /// can participate in persisted plan-profile keys.
    pub fn fingerprint(&self) -> u64 {
        let mut h = FNV_OFFSET;
        fnv1a_u64(&mut h, self.l1 as u64);
        fnv1a_u64(&mut h, self.l2 as u64);
        fnv1a_u64(&mut h, self.l3 as u64);
        h
    }

    /// Effective LLC capacity: L3 if present, else L2 (the paper's "last
    /// level data cache" on Phytium 2000+ is its 2 MiB L2).
    pub fn llc(&self) -> usize {
        if self.l3 > 0 {
            self.l3
        } else {
            self.l2
        }
    }
}

/// Parses a sysfs cache size string like `"32K"` / `"1024K"` / `"8M"` /
/// `"1G"`. Suffixes are case-insensitive (BSD-flavoured sysfs and some
/// hypervisors emit lowercase); a bare number is bytes.
fn parse_size(s: &str) -> Option<usize> {
    let s = s.trim();
    let (digits, mult) = match s.as_bytes().last()? {
        b'K' | b'k' => (&s[..s.len() - 1], 1024),
        b'M' | b'm' => (&s[..s.len() - 1], 1024 * 1024),
        b'G' | b'g' => (&s[..s.len() - 1], 1024 * 1024 * 1024),
        _ => (s, 1),
    };
    digits.parse::<usize>().ok().map(|x| x * mult)
}

/// The Goto loop blocking parameters derived from a [`CacheParams`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BlockSizes {
    /// L3-level column block (loop L1 of Figure 1).
    pub nc: usize,
    /// L2-level row block of A (loop L3; multiple of `mr`).
    pub mc: usize,
    /// L1-level depth block (loop L2; multiple of the vector lane count).
    pub kc: usize,
}

impl BlockSizes {
    /// Derives `(nc, mc, kc)` for elements of `elem_bytes` and the
    /// dispatched kernel set's register tile `mr x nr` of `lanes`-wide
    /// vectors, targeting half of each cache level. Every block is a
    /// whole number of tiles — `mc % mr == 0`, `nc % nr == 0`,
    /// `kc % lanes == 0` — so the blocking itself manufactures no edge
    /// tiles.
    pub fn derive(
        cache: &CacheParams,
        elem_bytes: usize,
        mr: usize,
        nr: usize,
        lanes: usize,
    ) -> Self {
        let down_to = |x: usize, q: usize| x / q * q;
        // kc: the kc x nr packed panel occupies <= L1/2. Rounded to the
        // lane count, and never finer than 4 (what the 128-bit f64 tile
        // has always used).
        let kc_raw = cache.l1 / (2 * nr * elem_bytes);
        let kc = down_to(kc_raw.clamp(32, 512), lanes.max(4));
        // mc: the mc x kc A block occupies <= L2/2.
        let mc_raw = cache.l2 / (2 * kc * elem_bytes);
        let mc = down_to(mc_raw.min(8192), mr).max(mr);
        // nc: the kc x nc B region occupies <= LLC/2.
        let nc_raw = cache.llc() / (2 * kc * elem_bytes);
        let nc = down_to(nc_raw.min(65536), nr).max(nr);
        Self { nc, mc, kc }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parse_sysfs_sizes() {
        assert_eq!(parse_size("32K"), Some(32 * 1024));
        assert_eq!(parse_size("8M"), Some(8 * 1024 * 1024));
        assert_eq!(parse_size("123"), Some(123));
        assert_eq!(parse_size("bogus"), None);
        // Lowercase and G suffixes (BSD-style sysfs, hypervisors).
        assert_eq!(parse_size("32k"), Some(32 * 1024));
        assert_eq!(parse_size("2m"), Some(2 * 1024 * 1024));
        assert_eq!(parse_size("1G"), Some(1024 * 1024 * 1024));
        assert_eq!(parse_size("1g"), Some(1024 * 1024 * 1024));
        assert_eq!(parse_size(" 64K "), Some(64 * 1024));
        assert_eq!(parse_size(""), None);
        assert_eq!(parse_size("K"), None);
    }

    #[test]
    fn sanitize_repairs_inverted_hierarchies() {
        let fb = CacheParams::fallback();
        // Zero L1 falls back.
        let p = CacheParams {
            l1: 0,
            l2: 1024 * 1024,
            l3: 0,
        }
        .sanitized();
        assert_eq!(p.l1, fb.l1);
        assert_eq!(p.l2, 1024 * 1024);
        // L2 below L1 is raised to at least L1.
        let p = CacheParams {
            l1: 64 * 1024,
            l2: 16 * 1024,
            l3: 32 * 1024 * 1024,
        }
        .sanitized();
        assert!(p.l2 >= p.l1);
        assert_eq!(p.l3, 32 * 1024 * 1024);
        // Nonzero L3 below L2 is treated as absent -> llc degrades to L2.
        let p = CacheParams {
            l1: 32 * 1024,
            l2: 2 * 1024 * 1024,
            l3: 512 * 1024,
        }
        .sanitized();
        assert_eq!(p.l3, 0);
        assert_eq!(p.llc(), p.l2);
        // A sane hierarchy passes through untouched.
        let sane = CacheParams {
            l1: 64 * 1024,
            l2: 512 * 1024,
            l3: 64 * 1024 * 1024,
        };
        assert_eq!(sane.sanitized(), sane);
    }

    #[test]
    fn detect_does_not_panic_and_is_sane() {
        let p = CacheParams::detect();
        assert!(p.l1 >= 4 * 1024);
        assert!(p.l2 >= p.l1);
        assert!(p.llc() >= p.l2.min(p.llc()));
    }

    #[test]
    fn phytium_like_derivation() {
        // Phytium 2000+: 32K L1, 2M L2 shared, no L3 (Table 1).
        let cache = CacheParams {
            l1: 32 * 1024,
            l2: 2 * 1024 * 1024,
            l3: 0,
        };
        let b = BlockSizes::derive(&cache, 4, 7, 12, 4);
        // kc*nr*4 <= 16K
        assert!(b.kc * 12 * 4 <= cache.l1 / 2 + 12 * 4 * 4);
        assert_eq!(b.kc % 4, 0);
        assert_eq!(b.mc % 7, 0);
        assert_eq!(b.nc % 12, 0);
        assert_eq!(cache.llc(), cache.l2);
    }

    #[test]
    fn kp920_like_derivation_f64() {
        // KP920: 64K L1, 512K L2, 64M L3.
        let cache = CacheParams {
            l1: 64 * 1024,
            l2: 512 * 1024,
            l3: 64 * 1024 * 1024,
        };
        let b = BlockSizes::derive(&cache, 8, 7, 6, 2);
        assert!(b.kc >= 32);
        assert!(b.mc >= 7);
        assert!(b.nc >= 6);
        // Larger L1 than ThunderX2 should not shrink kc.
        let tx2 = CacheParams {
            l1: 32 * 1024,
            l2: 256 * 1024,
            l3: 32 * 1024 * 1024,
        };
        let b2 = BlockSizes::derive(&tx2, 8, 7, 6, 2);
        assert!(b.kc >= b2.kc);
    }

    #[test]
    fn tiny_caches_still_yield_valid_blocks() {
        let cache = CacheParams {
            l1: 1024,
            l2: 2048,
            l3: 0,
        };
        let b = BlockSizes::derive(&cache, 8, 7, 12, 4);
        assert!(b.kc >= 32); // clamped floor
        assert!(b.mc >= 7);
        assert!(b.nc >= 12);
    }

    #[test]
    fn blocks_are_whole_tiles_of_every_registered_set() {
        let caches = [
            CacheParams::fallback(),
            CacheParams {
                l1: 256,
                l2: 4 * 1024,
                l3: 64 * 1024,
            },
            CacheParams {
                l1: 48 * 1024,
                l2: 64 * 1024 * 1024,
                l3: 1 << 32,
            },
        ];
        for fam in shalom_kernels::registered_families() {
            for (eb, mr, nr, lanes) in [
                (4, fam.k_f32.mr, fam.k_f32.nr, fam.k_f32.lanes),
                (8, fam.k_f64.mr, fam.k_f64.nr, fam.k_f64.lanes),
            ] {
                for cache in &caches {
                    let b = BlockSizes::derive(cache, eb, mr, nr, lanes);
                    assert!(b.mc >= mr && b.mc.is_multiple_of(mr), "{b:?} vs mr {mr}");
                    assert!(b.nc >= nr && b.nc.is_multiple_of(nr), "{b:?} vs nr {nr}");
                    assert!(
                        b.kc >= 32 && b.kc.is_multiple_of(lanes),
                        "{b:?} vs lanes {lanes}"
                    );
                }
            }
        }
    }

    #[test]
    fn base_tile_blocking_is_unchanged() {
        // Pins the 128-bit set's blocks on a realistic hierarchy: its kc
        // stays a multiple of 4 at both lane counts, so taking the tile
        // from the kernel set moved none of its `kk`/`ii`/`jj` seams.
        let cache = CacheParams {
            l1: 32 * 1024,
            l2: 2 * 1024 * 1024,
            l3: 0,
        };
        assert_eq!(
            BlockSizes::derive(&cache, 4, 7, 12, 4),
            BlockSizes {
                nc: 768,
                mc: 770,
                kc: 340
            }
        );
        assert_eq!(
            BlockSizes::derive(&cache, 8, 7, 6, 2),
            BlockSizes {
                nc: 384,
                mc: 385,
                kc: 340
            }
        );
    }
}
