//! Table-driven coverage of the typed configuration-error boundary: every
//! invalid machine/device/platform combination must be rejected by
//! [`Machine::validate`] with the expected [`SimError`] variant — before
//! any simulation state is built — and the same configurations must panic
//! (with the error's message) through [`Machine::run`].

use camp_sim::{DeviceKind, Machine, Op, Placement, Platform, SimError, Workload};

struct Probe;

impl Workload for Probe {
    fn name(&self) -> &str {
        "errors.probe"
    }
    fn footprint_bytes(&self) -> u64 {
        1 << 12
    }
    fn ops(&self) -> Box<dyn Iterator<Item = Op> + '_> {
        Box::new((0..64u64).map(|i| Op::load(i * 64)))
    }
}

struct Empty;

impl Workload for Empty {
    fn name(&self) -> &str {
        "errors.empty"
    }
    fn footprint_bytes(&self) -> u64 {
        0
    }
    fn ops(&self) -> Box<dyn Iterator<Item = Op> + '_> {
        Box::new(std::iter::empty())
    }
}

/// A machine with one doctored platform-config field.
fn doctored(mutate: impl FnOnce(&mut camp_sim::PlatformConfig)) -> Machine {
    let mut config = Platform::Spr2s.config();
    mutate(&mut config);
    Machine::dram_only(Platform::Spr2s).with_platform_config(config)
}

#[test]
fn every_invalid_configuration_is_rejected_with_its_typed_error() {
    let dram = DeviceKind::LocalDram;
    let cases: Vec<(&str, Machine, SimError)> = vec![
        (
            "negative read bandwidth",
            doctored(|c| c.dram.read_bw = -1.0),
            SimError::InvalidBandwidth { device: dram, what: "read_bw", value: -1.0 },
        ),
        (
            "zero write bandwidth",
            doctored(|c| c.dram.write_bw = 0.0),
            SimError::InvalidBandwidth { device: dram, what: "write_bw", value: 0.0 },
        ),
        (
            "zero idle latency",
            doctored(|c| c.dram.idle_latency_ns = 0.0),
            SimError::InvalidLatency { device: dram, value: 0.0 },
        ),
        (
            "negative idle latency",
            doctored(|c| c.dram.idle_latency_ns = -5.0),
            SimError::InvalidLatency { device: dram, value: -5.0 },
        ),
        (
            "latency spread of one allows zero-latency requests",
            doctored(|c| c.dram.latency_spread = 1.0),
            SimError::InvalidLatencySpread { device: dram, value: 1.0 },
        ),
        (
            "negative latency spread",
            doctored(|c| c.dram.latency_spread = -0.1),
            SimError::InvalidLatencySpread { device: dram, value: -0.1 },
        ),
        (
            "zero core frequency",
            doctored(|c| c.freq_ghz = 0.0),
            SimError::InvalidFrequency { value: 0.0 },
        ),
        (
            "sub-line l1 capacity",
            doctored(|c| c.l1.capacity_bytes = 32),
            SimError::InvalidCacheGeometry {
                level: "l1",
                reason: "capacity below one cache line",
            },
        ),
        (
            "zero l2 capacity",
            doctored(|c| c.l2.capacity_bytes = 0),
            SimError::InvalidCacheGeometry {
                level: "l2",
                reason: "capacity below one cache line",
            },
        ),
        (
            "zero l3 ways",
            doctored(|c| c.l3.ways = 0),
            SimError::InvalidCacheGeometry { level: "l3", reason: "zero ways" },
        ),
        (
            "zero line fill buffers",
            doctored(|c| c.lfb_entries = 0),
            SimError::InvalidBufferSize { buffer: "lfb" },
        ),
        (
            "zero superqueue entries",
            doctored(|c| c.sq_entries = 0),
            SimError::InvalidBufferSize { buffer: "superqueue" },
        ),
        (
            "zero store buffer entries",
            doctored(|c| c.sb_entries = 0),
            SimError::InvalidBufferSize { buffer: "store_buffer" },
        ),
        (
            "zero reorder buffer entries",
            doctored(|c| c.rob_entries = 0),
            SimError::InvalidBufferSize { buffer: "rob" },
        ),
        (
            "zero retire width",
            doctored(|c| c.retire_width = 0),
            SimError::InvalidBufferSize { buffer: "retire_width" },
        ),
        (
            "slow placement without a slow device",
            Machine::dram_only(Platform::Spr2s).with_placement(Placement::SlowOnly),
            SimError::MissingSlowDevice,
        ),
        (
            "interleaved placement without a slow device",
            Machine::dram_only(Platform::Spr2s).with_placement(Placement::interleave_ratio(0.5)),
            SimError::MissingSlowDevice,
        ),
        (
            "fast background utilisation above the cap",
            Machine::dram_only(Platform::Spr2s).with_background(0.96, 0.0),
            SimError::InvalidBackgroundUtilisation { tier: "fast", value: 0.96 },
        ),
        (
            "negative slow background utilisation",
            Machine::slow_only(Platform::Spr2s, DeviceKind::CxlA).with_background(0.0, -0.25),
            SimError::InvalidBackgroundUtilisation { tier: "slow", value: -0.25 },
        ),
    ];
    for (label, machine, expected) in cases {
        let error = machine.validate(&Probe).expect_err(label);
        assert_eq!(error, expected, "{label}");
        assert!(!error.to_string().is_empty(), "{label} renders a message");
        // The same rejection must reach callers of `run` as a panic
        // carrying the typed error's message.
        let panic = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            machine.run(&Probe);
        }))
        .expect_err(label);
        let message = panic
            .downcast_ref::<String>()
            .cloned()
            .unwrap_or_else(|| panic.downcast_ref::<&str>().map(|s| s.to_string()).unwrap());
        assert!(
            message.contains(&expected.to_string()),
            "{label}: panic message '{message}' must embed '{expected}'"
        );
    }
}

#[test]
fn non_finite_device_figures_are_rejected() {
    // NaN payloads cannot be compared with assert_eq; match structurally.
    let error = doctored(|c| c.dram.read_bw = f64::NAN).validate(&Probe).unwrap_err();
    assert!(
        matches!(error, SimError::InvalidBandwidth { what: "read_bw", value, .. } if value.is_nan())
    );
    let error = doctored(|c| c.freq_ghz = f64::INFINITY).validate(&Probe).unwrap_err();
    assert!(matches!(error, SimError::InvalidFrequency { value } if value.is_infinite()));
    let error = Machine::dram_only(Platform::Spr2s)
        .with_background(f64::NAN, 0.0)
        .validate(&Probe);
    assert!(matches!(
        error.unwrap_err(),
        SimError::InvalidBackgroundUtilisation { tier: "fast", value } if value.is_nan()
    ));
}

#[test]
fn zero_footprint_workload_is_rejected_on_every_preset() {
    for platform in Platform::ALL {
        let error = Machine::dram_only(platform).validate(&Empty).unwrap_err();
        assert_eq!(error, SimError::EmptyFootprint { workload: "errors.empty".into() });
    }
}

#[test]
fn valid_configurations_still_run() {
    for platform in Platform::ALL {
        assert_eq!(Machine::dram_only(platform).run(&Probe).workload, "errors.probe");
        for kind in DeviceKind::SLOW_TIERS {
            for machine in [
                Machine::slow_only(platform, kind),
                Machine::interleaved(platform, kind, 0.5),
            ] {
                assert!(machine.run(&Probe).slow_tier.is_some());
            }
        }
    }
}
