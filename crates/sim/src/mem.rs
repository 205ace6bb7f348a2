//! Queueing memory-device model.
//!
//! Each tier (local DRAM, remote NUMA, CXL expander) is a pair of
//! finite-rate servers matching the separate read/write bandwidth figures
//! of Tables 3–4: demand and prefetch reads share the read server, while
//! store-path traffic (RFO ownership reads and dirty writebacks) shares
//! the write server. A request's service start is `max(arrival,
//! server_free)`; its latency is the queueing delay plus the device's idle
//! latency. Under closed-loop load (bounded by the core's LFB/SQ), this
//! produces the loaded-latency curves and bandwidth ceilings that CAMP's
//! interleaving model (Eq. 8) approximates with a quadratic fit — the fit
//! is validated against this mechanism, not hard-coded into it.
//!
//! The two-server split also keeps each server's arrival stream
//! time-monotonic: loads execute far ahead of retirement while RFOs drain
//! at retirement pace, and a single FIFO shared by both would let
//! late-arriving store traffic block earlier loads purely due to
//! simulation call order.
//!
//! Multi-threaded workloads are modelled symmetrically: the simulated core
//! receives `1/threads` of the device bandwidth, so its per-line service
//! interval is multiplied by the thread count. Colocation interference is
//! modelled as a background utilisation that inflates the effective service
//! interval by `1/(1 - u)` (the partner's share of device time).

use crate::config::{DeviceConfig, PlatformConfig, LINE_BYTES};

/// Accumulated statistics for one device over a run.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct DeviceStats {
    /// Read (line) requests served.
    pub reads: u64,
    /// Write (line) requests served (dirty writebacks).
    pub writes: u64,
    /// Read-for-ownership requests served on the write server.
    pub rfos: u64,
    /// Sum of total read latencies (queueing + idle) in cycles.
    pub total_read_latency: f64,
    /// Sum of read queueing delays in cycles.
    pub total_read_queue_delay: f64,
    /// Cycles the read server was busy.
    pub read_busy: f64,
    /// Largest single-request queueing delay observed.
    pub max_read_queue_delay: f64,
}

impl DeviceStats {
    /// Average read latency in cycles, or `None` if no reads occurred.
    pub fn avg_read_latency(&self) -> Option<f64> {
        if self.reads > 0 {
            Some(self.total_read_latency / self.reads as f64)
        } else {
            None
        }
    }

    /// Average queueing delay per read in cycles.
    pub fn avg_read_queue_delay(&self) -> Option<f64> {
        if self.reads > 0 {
            Some(self.total_read_queue_delay / self.reads as f64)
        } else {
            None
        }
    }

    /// Bytes read from the device.
    pub fn read_bytes(&self) -> u64 {
        self.reads * LINE_BYTES
    }

    /// Bytes written to the device.
    pub fn write_bytes(&self) -> u64 {
        self.writes * LINE_BYTES
    }

    /// Bytes moved by RFO ownership reads.
    pub fn rfo_bytes(&self) -> u64 {
        self.rfos * LINE_BYTES
    }

    /// Counter deltas accumulated since an `earlier` snapshot of the same
    /// device (used by epoch sampling). `max_read_queue_delay` is a
    /// running maximum, not a sum, so the current value carries over.
    pub fn delta_since(&self, earlier: &DeviceStats) -> DeviceStats {
        DeviceStats {
            reads: self.reads - earlier.reads,
            writes: self.writes - earlier.writes,
            rfos: self.rfos - earlier.rfos,
            total_read_latency: self.total_read_latency - earlier.total_read_latency,
            total_read_queue_delay: self.total_read_queue_delay - earlier.total_read_queue_delay,
            read_busy: self.read_busy - earlier.read_busy,
            max_read_queue_delay: self.max_read_queue_delay,
        }
    }
}

/// One memory device instance for one simulation run.
#[derive(Debug, Clone)]
pub struct Device {
    config: DeviceConfig,
    /// Idle latency in cycles.
    idle_latency: f64,
    /// Effective per-line read service interval in cycles (per-core share).
    svc_read: f64,
    /// Effective per-line write service interval in cycles.
    svc_write: f64,
    read_free: f64,
    write_free: f64,
    /// Deterministic per-request jitter state (see [`Device::read`]).
    jitter_state: u64,
    stats: DeviceStats,
}

impl Device {
    /// Builds a device for a run: `sharers` is the effective number of
    /// symmetric threads competing for this tier (for a tier receiving
    /// fraction `f` of the footprint under `T` threads, `1 + (T-1)·f` —
    /// the other threads are statistically desynchronised, so each loads
    /// the tier in proportion to its traffic share); `background_util`
    /// (in `[0, 0.95]`) models colocated traffic from other workloads.
    ///
    /// # Panics
    ///
    /// Panics if `sharers < 1` or `background_util` is outside `[0, 0.95]`.
    pub fn new(
        config: DeviceConfig,
        platform: &PlatformConfig,
        sharers: f64,
        background_util: f64,
    ) -> Self {
        assert!(sharers >= 1.0, "device must serve at least one thread");
        assert!(
            (0.0..=0.95).contains(&background_util),
            "background utilisation must be in [0, 0.95]"
        );
        let share = sharers / (1.0 - background_util);
        Device {
            config,
            idle_latency: platform.ns_to_cycles(config.idle_latency_ns),
            svc_read: platform.line_service_cycles(config.read_bw) * share,
            svc_write: platform.line_service_cycles(config.write_bw) * share,
            read_free: 0.0,
            write_free: 0.0,
            jitter_state: 0x5851_f42d_4c95_7f2d ^ config.kind as u64,
            stats: DeviceStats::default(),
        }
    }

    /// Next deterministic latency factor: uniform in
    /// `[1 - spread, 1 + spread]` with mean 1, so average latency matches
    /// the configured idle latency while individual requests vary (bank
    /// conflicts, refresh, link retries — the tail variance the paper
    /// reports, strongest on CXL-B).
    fn jitter(&mut self) -> f64 {
        self.jitter_state = self.jitter_state.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.jitter_state;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^= z >> 31;
        let unit = (z >> 11) as f64 / (1u64 << 53) as f64;
        1.0 + self.config.latency_spread * (2.0 * unit - 1.0)
    }

    /// The device configuration.
    pub fn config(&self) -> &DeviceConfig {
        &self.config
    }

    /// Idle latency in core cycles.
    pub fn idle_latency(&self) -> f64 {
        self.idle_latency
    }

    /// Effective per-line read service interval in cycles (after thread
    /// and background scaling).
    pub fn read_service_interval(&self) -> f64 {
        self.svc_read
    }

    /// Serves a line read arriving at `arrival`; returns the completion
    /// time.
    pub fn read(&mut self, arrival: f64) -> f64 {
        let start = arrival.max(self.read_free);
        self.read_free = start + self.svc_read;
        let completion = start + self.idle_latency * self.jitter();
        self.stats.reads += 1;
        self.stats.total_read_latency += completion - arrival;
        self.stats.total_read_queue_delay += start - arrival;
        if start - arrival > self.stats.max_read_queue_delay {
            self.stats.max_read_queue_delay = start - arrival;
        }
        self.stats.read_busy += self.svc_read;
        completion
    }

    /// Serves a line write (dirty writeback) arriving at `arrival`;
    /// returns the completion time (writes are posted; callers normally
    /// ignore it).
    pub fn write(&mut self, arrival: f64) -> f64 {
        let start = arrival.max(self.write_free);
        self.write_free = start + self.svc_write;
        self.stats.writes += 1;
        start + self.svc_write
    }

    /// Serves a read-for-ownership request arriving at `arrival` and
    /// returns its completion time. RFOs travel the store path: they queue
    /// on the write server (whose arrival stream is retirement-paced) but
    /// pay the device's read latency to fetch the line.
    pub fn rfo(&mut self, arrival: f64) -> f64 {
        let start = arrival.max(self.write_free);
        self.write_free = start + self.svc_write;
        self.stats.rfos += 1;
        start + self.idle_latency * self.jitter()
    }

    /// Statistics accumulated so far.
    pub fn stats(&self) -> &DeviceStats {
        &self.stats
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::Platform;

    fn device(sharers: f64, bg: f64) -> Device {
        let platform = Platform::Spr2s.config();
        let cfg = platform.dram;
        Device::new(cfg, &platform, sharers, bg)
    }

    #[test]
    fn unloaded_reads_see_idle_latency() {
        let mut dev = device(1.0, 0.0);
        let idle = dev.idle_latency();
        let spread = dev.config().latency_spread;
        // Widely spaced arrivals never queue; individual latencies jitter
        // within the configured spread and average to the idle latency.
        let n = 2_000;
        for i in 0..n {
            let arrival = i as f64 * 10_000.0;
            let done = dev.read(arrival);
            let latency = done - arrival;
            assert!(
                (latency - idle).abs() <= idle * spread + 1e-9,
                "latency {latency} outside spread around {idle}"
            );
        }
        assert_eq!(dev.stats().avg_read_queue_delay(), Some(0.0));
        let avg = dev.stats().avg_read_latency().expect("reads happened");
        assert!((avg - idle).abs() < idle * 0.02, "avg {avg} vs idle {idle}");
    }

    #[test]
    fn saturating_arrivals_queue_superlinearly() {
        let mut dev = device(8.0, 0.0);
        let svc = dev.read_service_interval();
        // Offer load at 2x capacity: queueing delay grows with each request.
        let spacing = svc / 2.0;
        let mut delays = Vec::new();
        for i in 0..100 {
            let arrival = i as f64 * spacing;
            let done = dev.read(arrival);
            delays.push(done - arrival - dev.idle_latency());
        }
        assert!(delays[0] < dev.idle_latency() * 0.2, "first request barely waits");
        assert!(delays[99] > delays[50], "queue keeps building");
        // With 2x offered load, request i waits ~ i * svc/2 (within the
        // per-request latency jitter).
        assert!((delays[99] - 99.0 * spacing).abs() < svc + dev.idle_latency() * 0.2);
    }

    #[test]
    fn thread_count_scales_service_interval() {
        let one = device(1.0, 0.0);
        let eight = device(8.0, 0.0);
        assert!((eight.read_service_interval() / one.read_service_interval() - 8.0).abs() < 1e-9);
        // Idle latency is unaffected by sharing.
        assert_eq!(one.idle_latency(), eight.idle_latency());
    }

    #[test]
    fn background_utilisation_inflates_service() {
        let free = device(1.0, 0.0);
        let busy = device(1.0, 0.5);
        assert!((busy.read_service_interval() / free.read_service_interval() - 2.0).abs() < 1e-9);
    }

    #[test]
    fn reads_and_writes_use_independent_servers() {
        let mut dev = device(8.0, 0.0);
        // Saturate the write server.
        for i in 0..50 {
            dev.write(i as f64 * 0.1);
        }
        // A read arriving now still sees an idle read server (no queueing
        // delay beyond the latency jitter).
        let done = dev.read(5.0);
        assert!((done - 5.0 - dev.idle_latency()).abs() <= dev.idle_latency() * 0.2);
        assert_eq!(dev.stats().reads, 1);
        assert_eq!(dev.stats().writes, 50);
    }

    #[test]
    fn stats_byte_accounting() {
        let mut dev = device(1.0, 0.0);
        dev.read(0.0);
        dev.read(1.0);
        dev.write(2.0);
        assert_eq!(dev.stats().read_bytes(), 128);
        assert_eq!(dev.stats().write_bytes(), 64);
    }

    #[test]
    fn empty_stats_have_no_latency() {
        let dev = device(1.0, 0.0);
        assert_eq!(dev.stats().avg_read_latency(), None);
    }

    #[test]
    #[should_panic(expected = "at least one thread")]
    fn zero_threads_rejected() {
        let _ = device(0.5, 0.0);
    }

    #[test]
    #[should_panic(expected = "background utilisation")]
    fn excessive_background_rejected() {
        let _ = device(1.0, 0.99);
    }
}
