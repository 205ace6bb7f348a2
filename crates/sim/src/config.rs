//! Platform and memory-device configuration (Tables 3 and 4 of the paper).
//!
//! A [`PlatformConfig`] describes one server: core micro-architecture
//! (buffer sizes, cache geometry, retire width) plus its local-DRAM device.
//! A [`DeviceConfig`] describes one memory backend — local DRAM, the remote
//! NUMA socket, or one of the three ASIC CXL 2.0 expanders.
//!
//! All latencies are stored in nanoseconds and converted to core cycles with
//! the platform frequency; bandwidths are bytes/second converted to a
//! per-line service interval in cycles.
//!
//! Both config types expose a `validate()` returning a typed
//! [`SimError`] so invalid parameter combinations
//! (non-positive bandwidths, zero-capacity caches, zero-entry buffers) are
//! rejected by [`Machine::validate`](crate::engine::Machine::validate)
//! before a run instead of panicking deep inside the engine.

use crate::error::SimError;

/// Cache-line size in bytes (all modelled platforms use 64-byte lines).
pub const LINE_BYTES: u64 = 64;

/// Page size used for tier placement decisions (4 KiB, matching Linux
/// weighted interleaving granularity).
pub const PAGE_BYTES: u64 = 4096;

/// The three evaluated Intel server platforms (Table 3).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum Platform {
    /// Two-socket Skylake: Xeon 4110, 10 cores @ 2.2 GHz, 14 MB LLC,
    /// DDR4-2666.
    Skx2s,
    /// Two-socket Sapphire Rapids: Xeon 6430, 32 cores @ 2.1 GHz, 60 MB
    /// LLC, DDR5-4800.
    Spr2s,
    /// Two-socket Emerald Rapids: Xeon 6530, 32 cores @ 2.1 GHz, 160 MB
    /// LLC, DDR5-4800.
    Emr2s,
}

impl Platform {
    /// All platforms, in Table 3 order.
    pub const ALL: [Platform; 3] = [Platform::Skx2s, Platform::Spr2s, Platform::Emr2s];

    /// Short display name matching the paper ("SKX2S", ...).
    pub fn name(self) -> &'static str {
        match self {
            Platform::Skx2s => "SKX2S",
            Platform::Spr2s => "SPR2S",
            Platform::Emr2s => "EMR2S",
        }
    }

    /// Full configuration preset for this platform.
    pub fn config(self) -> PlatformConfig {
        PlatformConfig::preset(self)
    }
}

impl std::fmt::Display for Platform {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

impl std::str::FromStr for Platform {
    type Err = String;

    /// Parses the paper's short display name (`"SKX2S"`, ...) or the
    /// same name without its `2S` suffix (`"skx"`), case insensitively —
    /// the inverse of [`Platform::name`], used by CLI flags and the
    /// `camp-serve` wire protocol.
    fn from_str(s: &str) -> Result<Self, Self::Err> {
        let short = |p: Platform| p.name().strip_suffix("2S").unwrap_or(p.name());
        Platform::ALL
            .into_iter()
            .find(|&p| p.name().eq_ignore_ascii_case(s) || short(p).eq_ignore_ascii_case(s))
            .ok_or_else(|| format!("unknown platform '{s}' (expected SKX2S, SPR2S, or EMR2S)"))
    }
}

/// Which counter events a platform's PMU exposes for the cache model
/// (§4.4.3): SKX has precise L1-prefetch response counters (`P7`/`P8`);
/// SPR/EMR lack them and use uncore CHA proxies (`P14`–`P17`).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum CounterFlavor {
    /// Skylake-style events: late-prefetch demand waits are visible as
    /// L1D-miss stalls only, and L1-prefetch offcore responses are counted.
    Skx,
    /// Sapphire/Emerald Rapids-style events: late-prefetch waits surface in
    /// both L1D- and L2-miss stall counters, and prefetch memory reliance
    /// must be inferred from CHA lookup/TOR-insert proxies.
    SprEmr,
}

/// Geometry and latency of one cache level.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CacheGeometry {
    /// Total capacity in bytes.
    pub capacity_bytes: u64,
    /// Associativity (ways per set).
    pub ways: u32,
    /// Load-to-use hit latency in cycles.
    pub hit_latency: u32,
}

impl CacheGeometry {
    /// Number of 64-byte lines this cache holds.
    pub fn lines(&self) -> u64 {
        self.capacity_bytes / LINE_BYTES
    }

    /// Number of sets (lines / ways), at least one.
    pub fn sets(&self) -> u64 {
        (self.lines() / self.ways as u64).max(1)
    }
}

/// A complete description of one simulated server.
#[derive(Debug, Clone, PartialEq)]
pub struct PlatformConfig {
    /// Which preset this is.
    pub platform: Platform,
    /// Core frequency in GHz (converts nanoseconds to cycles).
    pub freq_ghz: f64,
    /// Physical cores per socket.
    pub cores: u32,
    /// Counter flavour (which Table 5 events exist).
    pub counter_flavor: CounterFlavor,
    /// L1 data cache.
    pub l1: CacheGeometry,
    /// Unified L2.
    pub l2: CacheGeometry,
    /// Shared LLC (per-socket; the engine divides it among active threads).
    pub l3: CacheGeometry,
    /// Line Fill Buffer entries (L1 miss-status holding registers).
    pub lfb_entries: u32,
    /// SuperQueue entries (L2 miss tracking toward the uncore).
    pub sq_entries: u32,
    /// Uncore prefetch-tracking entries: L2-streamer and offcore L1
    /// prefetches are handed off to the uncore and tracked here rather
    /// than occupying the SuperQueue for the whole memory latency. This
    /// is what lets a single core's prefetchers pull enough in-flight
    /// lines to saturate its DRAM bandwidth share.
    pub uncore_pf_entries: u32,
    /// Store Buffer entries.
    pub sb_entries: u32,
    /// Maximum RFO requests the SB drain keeps in flight.
    pub sb_drain_parallelism: u32,
    /// Reorder-buffer capacity in micro-ops.
    pub rob_entries: u32,
    /// Scheduler (reservation-station) window in micro-ops; bounds how far
    /// issue may run ahead of retirement — the effective latency-hiding
    /// horizon of the core.
    pub sched_window: u32,
    /// Instructions retired per cycle at best.
    pub retire_width: u32,
    /// L1 stream prefetcher: lines of lookahead.
    pub l1_pf_distance: u32,
    /// L1 stream prefetcher: prefetches issued per trigger.
    pub l1_pf_degree: u32,
    /// L2 stride prefetcher: lines of lookahead.
    pub l2_pf_distance: u32,
    /// L2 stride prefetcher: prefetches issued per trigger.
    pub l2_pf_degree: u32,
    /// The platform's local-DRAM device.
    pub dram: DeviceConfig,
}

impl PlatformConfig {
    /// Returns the Table 3 preset for `platform`.
    pub fn preset(platform: Platform) -> Self {
        let kib = |k: u64| k * 1024;
        let mib = |m: u64| m * 1024 * 1024;
        match platform {
            Platform::Skx2s => PlatformConfig {
                platform,
                freq_ghz: 2.2,
                cores: 10,
                counter_flavor: CounterFlavor::Skx,
                l1: CacheGeometry { capacity_bytes: kib(32), ways: 8, hit_latency: 4 },
                l2: CacheGeometry { capacity_bytes: mib(1), ways: 16, hit_latency: 14 },
                l3: CacheGeometry { capacity_bytes: mib(14), ways: 11, hit_latency: 44 },
                lfb_entries: 10,
                sq_entries: 16,
                uncore_pf_entries: 40,
                sb_entries: 56,
                sb_drain_parallelism: 8,
                rob_entries: 224,
                sched_window: 97,
                retire_width: 4,
                l1_pf_distance: 8,
                l1_pf_degree: 2,
                l2_pf_distance: 32,
                l2_pf_degree: 6,
                dram: DeviceConfig::ddr4_2666(),
            },
            Platform::Spr2s => PlatformConfig {
                platform,
                freq_ghz: 2.1,
                cores: 32,
                counter_flavor: CounterFlavor::SprEmr,
                l1: CacheGeometry { capacity_bytes: kib(48), ways: 12, hit_latency: 5 },
                l2: CacheGeometry { capacity_bytes: mib(2), ways: 16, hit_latency: 15 },
                l3: CacheGeometry { capacity_bytes: mib(60), ways: 15, hit_latency: 52 },
                lfb_entries: 16,
                sq_entries: 32,
                uncore_pf_entries: 64,
                sb_entries: 112,
                sb_drain_parallelism: 16,
                rob_entries: 512,
                sched_window: 160,
                retire_width: 6,
                l1_pf_distance: 10,
                l1_pf_degree: 2,
                l2_pf_distance: 40,
                l2_pf_degree: 8,
                dram: DeviceConfig::ddr5_4800_spr(),
            },
            Platform::Emr2s => PlatformConfig {
                platform,
                freq_ghz: 2.1,
                cores: 32,
                counter_flavor: CounterFlavor::SprEmr,
                l1: CacheGeometry { capacity_bytes: kib(48), ways: 12, hit_latency: 5 },
                l2: CacheGeometry { capacity_bytes: mib(2), ways: 16, hit_latency: 15 },
                l3: CacheGeometry {
                    capacity_bytes: mib(160),
                    ways: 16,
                    hit_latency: 56,
                },
                lfb_entries: 16,
                sq_entries: 32,
                uncore_pf_entries: 64,
                sb_entries: 112,
                sb_drain_parallelism: 16,
                rob_entries: 512,
                sched_window: 160,
                retire_width: 6,
                l1_pf_distance: 10,
                l1_pf_degree: 2,
                l2_pf_distance: 40,
                l2_pf_degree: 8,
                dram: DeviceConfig::ddr5_4800_emr(),
            },
        }
    }

    /// Converts a latency in nanoseconds to core cycles.
    pub fn ns_to_cycles(&self, ns: f64) -> f64 {
        ns * self.freq_ghz
    }

    /// Converts a cycle count to seconds.
    pub fn cycles_to_seconds(&self, cycles: f64) -> f64 {
        cycles / (self.freq_ghz * 1e9)
    }

    /// Per-line service interval in cycles for a given bandwidth in bytes/s
    /// (full-device; the engine multiplies by the thread count to model each
    /// core's share).
    pub fn line_service_cycles(&self, bytes_per_sec: f64) -> f64 {
        LINE_BYTES as f64 * self.freq_ghz * 1e9 / bytes_per_sec
    }

    /// Checks every parameter the engine divides by or sizes a structure
    /// with, returning the first violation as a typed error. Presets always
    /// validate; hand-built or mutated configs (what-if studies through
    /// [`Machine::with_platform_config`](crate::engine::Machine::with_platform_config))
    /// may not.
    pub fn validate(&self) -> Result<(), SimError> {
        if !(self.freq_ghz.is_finite() && self.freq_ghz > 0.0) {
            return Err(SimError::InvalidFrequency { value: self.freq_ghz });
        }
        for (level, geometry) in [("l1", &self.l1), ("l2", &self.l2), ("l3", &self.l3)] {
            if geometry.capacity_bytes < LINE_BYTES {
                return Err(SimError::InvalidCacheGeometry {
                    level,
                    reason: "capacity below one cache line",
                });
            }
            if geometry.ways == 0 {
                return Err(SimError::InvalidCacheGeometry { level, reason: "zero ways" });
            }
        }
        for (buffer, entries) in [
            ("lfb", self.lfb_entries),
            ("superqueue", self.sq_entries),
            ("uncore_pf", self.uncore_pf_entries),
            ("store_buffer", self.sb_entries),
            ("sb_drain", self.sb_drain_parallelism),
            ("rob", self.rob_entries),
            ("sched_window", self.sched_window),
            ("retire_width", self.retire_width),
        ] {
            if entries == 0 {
                return Err(SimError::InvalidBufferSize { buffer });
            }
        }
        self.dram.validate()
    }
}

/// The memory backends of Tables 3 and 4.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum DeviceKind {
    /// The platform's local DRAM.
    LocalDram,
    /// Remote-socket NUMA memory (emulated slow tier on SKX).
    Numa,
    /// CXL expander A: DDR4-2666 backed, 24 GB/s, 214 ns, PCIe 5 ×8.
    CxlA,
    /// CXL expander B: DDR5-4800 backed, 22 GB/s, 271 ns, PCIe 5 ×8.
    CxlB,
    /// CXL expander C: DDR5-4800 backed, 52 GB/s, 239 ns, PCIe 5 ×16.
    CxlC,
}

impl DeviceKind {
    /// The four slow tiers evaluated in the paper (NUMA plus three CXL
    /// expanders), in evaluation order.
    pub const SLOW_TIERS: [DeviceKind; 4] = [
        DeviceKind::Numa,
        DeviceKind::CxlA,
        DeviceKind::CxlB,
        DeviceKind::CxlC,
    ];

    /// Display name.
    pub fn name(self) -> &'static str {
        match self {
            DeviceKind::LocalDram => "DRAM",
            DeviceKind::Numa => "NUMA",
            DeviceKind::CxlA => "CXL-A",
            DeviceKind::CxlB => "CXL-B",
            DeviceKind::CxlC => "CXL-C",
        }
    }

    /// Device preset for this kind on the given platform (local DRAM and
    /// NUMA depend on the platform's memory generation; the CXL expanders
    /// are platform-independent ASICs).
    pub fn config_for(self, platform: Platform) -> DeviceConfig {
        match self {
            DeviceKind::LocalDram => platform.config().dram,
            DeviceKind::Numa => match platform {
                Platform::Skx2s => DeviceConfig {
                    kind: DeviceKind::Numa,
                    idle_latency_ns: 140.0,
                    read_bw: 32.0e9,
                    write_bw: 24.0e9,
                    latency_spread: 0.20,
                },
                // DDR5 platforms have faster interconnects but the same
                // remote-socket structure; latency from Table 3's second
                // figures (191/192 ns remote).
                Platform::Spr2s => DeviceConfig {
                    kind: DeviceKind::Numa,
                    idle_latency_ns: 191.0,
                    read_bw: 97.0e9,
                    write_bw: 70.0e9,
                    latency_spread: 0.20,
                },
                Platform::Emr2s => DeviceConfig {
                    kind: DeviceKind::Numa,
                    idle_latency_ns: 192.0,
                    read_bw: 120.0e9,
                    write_bw: 85.0e9,
                    latency_spread: 0.20,
                },
            },
            DeviceKind::CxlA => DeviceConfig {
                kind: DeviceKind::CxlA,
                idle_latency_ns: 214.0,
                read_bw: 24.0e9,
                write_bw: 22.0e9,
                latency_spread: 0.30,
            },
            DeviceKind::CxlB => DeviceConfig {
                kind: DeviceKind::CxlB,
                idle_latency_ns: 271.0,
                read_bw: 22.0e9,
                write_bw: 20.0e9,
                latency_spread: 0.50,
            },
            DeviceKind::CxlC => DeviceConfig {
                kind: DeviceKind::CxlC,
                idle_latency_ns: 239.0,
                read_bw: 52.0e9,
                write_bw: 46.0e9,
                latency_spread: 0.35,
            },
        }
    }
}

impl std::fmt::Display for DeviceKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

impl std::str::FromStr for DeviceKind {
    type Err = String;

    /// Parses the display name (`"CXL-A"`, `"NUMA"`, ...) or the same name
    /// without its dash (`"cxla"`), case insensitively — the inverse of
    /// [`DeviceKind::name`], used by CLI flags and the `camp-serve` wire
    /// protocol.
    fn from_str(s: &str) -> Result<Self, Self::Err> {
        [
            DeviceKind::LocalDram,
            DeviceKind::Numa,
            DeviceKind::CxlA,
            DeviceKind::CxlB,
            DeviceKind::CxlC,
        ]
        .into_iter()
        .find(|d| {
            d.name().eq_ignore_ascii_case(s) || d.name().replace('-', "").eq_ignore_ascii_case(s)
        })
        .ok_or_else(|| {
            format!("unknown device '{s}' (expected DRAM, NUMA, CXL-A, CXL-B, or CXL-C)")
        })
    }
}

/// Latency/bandwidth description of one memory device.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DeviceConfig {
    /// Which backend this is.
    pub kind: DeviceKind,
    /// Unloaded (queue-empty) access latency in nanoseconds.
    pub idle_latency_ns: f64,
    /// Peak read bandwidth in bytes per second.
    pub read_bw: f64,
    /// Peak write bandwidth in bytes per second.
    pub write_bw: f64,
    /// Per-request latency spread (half-width as a fraction of the idle
    /// latency; the mean stays at `idle_latency_ns`). DRAM has modest
    /// spread (bank conflicts, refresh); the CXL expanders are wider —
    /// CXL-B notably so, matching the tail-latency variance the paper
    /// reports for it.
    pub latency_spread: f64,
}

impl DeviceConfig {
    /// SKX local DRAM: DDR4-2666, 52/32 GB/s, 90 ns.
    pub fn ddr4_2666() -> Self {
        DeviceConfig {
            kind: DeviceKind::LocalDram,
            idle_latency_ns: 90.0,
            read_bw: 52.0e9,
            write_bw: 32.0e9,
            latency_spread: 0.15,
        }
    }

    /// SPR local DRAM: DDR5-4800, 191/97 GB/s, 114 ns.
    pub fn ddr5_4800_spr() -> Self {
        DeviceConfig {
            kind: DeviceKind::LocalDram,
            idle_latency_ns: 114.0,
            read_bw: 191.0e9,
            write_bw: 97.0e9,
            latency_spread: 0.15,
        }
    }

    /// EMR local DRAM: DDR5-4800 (more channels), 246/120 GB/s, 111 ns.
    pub fn ddr5_4800_emr() -> Self {
        DeviceConfig {
            kind: DeviceKind::LocalDram,
            idle_latency_ns: 111.0,
            read_bw: 246.0e9,
            write_bw: 120.0e9,
            latency_spread: 0.15,
        }
    }

    /// Checks the device parameters, returning the first violation as a
    /// typed error: both bandwidths and the idle latency must be positive
    /// and finite, and the latency spread must stay in `[0, 1)` (a spread
    /// of 1 would allow zero-latency requests).
    pub fn validate(&self) -> Result<(), SimError> {
        for (what, value) in [("read_bw", self.read_bw), ("write_bw", self.write_bw)] {
            if !(value.is_finite() && value > 0.0) {
                return Err(SimError::InvalidBandwidth { device: self.kind, what, value });
            }
        }
        if !(self.idle_latency_ns.is_finite() && self.idle_latency_ns > 0.0) {
            return Err(SimError::InvalidLatency {
                device: self.kind,
                value: self.idle_latency_ns,
            });
        }
        if !(self.latency_spread.is_finite() && (0.0..1.0).contains(&self.latency_spread)) {
            return Err(SimError::InvalidLatencySpread {
                device: self.kind,
                value: self.latency_spread,
            });
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn presets_match_table3_headlines() {
        let skx = Platform::Skx2s.config();
        assert_eq!(skx.cores, 10);
        assert_eq!(skx.l3.capacity_bytes, 14 * 1024 * 1024);
        assert!((skx.dram.idle_latency_ns - 90.0).abs() < f64::EPSILON);
        let spr = Platform::Spr2s.config();
        assert_eq!(spr.l3.capacity_bytes, 60 * 1024 * 1024);
        assert!((spr.dram.read_bw - 191.0e9).abs() < 1.0);
        let emr = Platform::Emr2s.config();
        assert_eq!(emr.l3.capacity_bytes, 160 * 1024 * 1024);
    }

    #[test]
    fn cxl_devices_match_table4() {
        let a = DeviceKind::CxlA.config_for(Platform::Spr2s);
        assert!((a.idle_latency_ns - 214.0).abs() < f64::EPSILON);
        assert!((a.read_bw - 24.0e9).abs() < 1.0);
        let b = DeviceKind::CxlB.config_for(Platform::Spr2s);
        assert!((b.idle_latency_ns - 271.0).abs() < f64::EPSILON);
        let c = DeviceKind::CxlC.config_for(Platform::Spr2s);
        // CXL-C has roughly double the bandwidth of CXL-A (Table 4).
        assert!(c.read_bw > 2.0 * a.read_bw * 0.9);
    }

    #[test]
    fn cxl_slower_than_local_dram_everywhere() {
        for platform in Platform::ALL {
            let dram = DeviceKind::LocalDram.config_for(platform);
            for kind in DeviceKind::SLOW_TIERS {
                let slow = kind.config_for(platform);
                assert!(
                    slow.idle_latency_ns > dram.idle_latency_ns,
                    "{kind} not slower than DRAM on {platform}"
                );
            }
        }
    }

    #[test]
    fn ns_cycle_conversion_round_trips() {
        let cfg = Platform::Spr2s.config();
        let cycles = cfg.ns_to_cycles(114.0);
        assert!((cycles - 239.4).abs() < 1e-9);
        let secs = cfg.cycles_to_seconds(cycles);
        assert!((secs - 114.0e-9).abs() < 1e-18);
    }

    #[test]
    fn line_service_interval_is_sub_cycle_for_fast_dram() {
        let cfg = Platform::Spr2s.config();
        let svc = cfg.line_service_cycles(cfg.dram.read_bw);
        // 64 B at 191 GB/s is ~0.34 ns = ~0.70 cycles at 2.1 GHz.
        assert!(svc > 0.5 && svc < 1.0, "svc = {svc}");
    }

    #[test]
    fn cache_geometry_math() {
        let geo = CacheGeometry { capacity_bytes: 32 * 1024, ways: 8, hit_latency: 4 };
        assert_eq!(geo.lines(), 512);
        assert_eq!(geo.sets(), 64);
    }

    #[test]
    fn skx_uses_skx_counter_flavor() {
        assert_eq!(Platform::Skx2s.config().counter_flavor, CounterFlavor::Skx);
        assert_eq!(Platform::Spr2s.config().counter_flavor, CounterFlavor::SprEmr);
        assert_eq!(Platform::Emr2s.config().counter_flavor, CounterFlavor::SprEmr);
    }

    #[test]
    fn display_names() {
        assert_eq!(Platform::Skx2s.to_string(), "SKX2S");
        assert_eq!(DeviceKind::CxlB.to_string(), "CXL-B");
    }

    #[test]
    fn names_parse_with_and_without_their_suffix_or_dash() {
        for platform in Platform::ALL {
            assert_eq!(platform.name().parse(), Ok(platform));
            assert_eq!(platform.name().to_lowercase().parse(), Ok(platform));
        }
        assert_eq!("skx".parse(), Ok(Platform::Skx2s));
        assert_eq!("SPR".parse(), Ok(Platform::Spr2s));
        assert_eq!("emr".parse(), Ok(Platform::Emr2s));
        assert!("skx2".parse::<Platform>().is_err());
        assert!("2s".parse::<Platform>().is_err());
        for kind in DeviceKind::SLOW_TIERS {
            assert_eq!(kind.name().parse(), Ok(kind));
            assert_eq!(kind.name().to_lowercase().parse(), Ok(kind));
        }
        assert_eq!("cxla".parse(), Ok(DeviceKind::CxlA));
        assert_eq!("CXLB".parse(), Ok(DeviceKind::CxlB));
        assert_eq!("cxlc".parse(), Ok(DeviceKind::CxlC));
        assert_eq!("dram".parse(), Ok(DeviceKind::LocalDram));
        let error = "cxl-z".parse::<DeviceKind>().unwrap_err();
        assert!(error.contains("unknown device 'cxl-z'"), "{error}");
        assert!("cxl".parse::<DeviceKind>().is_err());
    }

    #[test]
    fn every_preset_validates() {
        for platform in Platform::ALL {
            platform.config().validate().expect("platform preset valid");
            for kind in DeviceKind::SLOW_TIERS {
                kind.config_for(platform).validate().expect("device preset valid");
            }
        }
    }

    #[test]
    fn doctored_device_is_rejected() {
        let mut device = DeviceConfig::ddr4_2666();
        device.read_bw = 0.0;
        assert!(matches!(
            device.validate(),
            Err(SimError::InvalidBandwidth { what: "read_bw", .. })
        ));
    }
}
