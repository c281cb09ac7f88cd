//! Property tests for the frame algebra of §3.2: for every operation at
//! its scheduling moment the move frame satisfies
//! `MF = PF − (RF ∪ FF ∪ AF)` — it lies inside the primary frame, never
//! touches the redundant columns, the dependency-forbidden steps, or
//! the access-conflict steps of a fully-occupied memory bank — and the
//! move loop's local rescheduling terminates within its column budget.

use proptest::prelude::*;

use moveframe_hls::benchmarks::generate::{generate, GeneratorConfig};
use moveframe_hls::benchmarks::memory;
use moveframe_hls::mem::{check_port_safety, port_pressure};
use moveframe_hls::moveframe::FrameSnapshot;
use moveframe_hls::prelude::*;

/// The same layered-DAG strategy as `property_tests.rs`.
fn config_strategy() -> impl Strategy<Value = GeneratorConfig> {
    (1u64..1000, 1usize..6, 1usize..7, 2usize..6, 0u32..100).prop_map(
        |(seed, layers, width, inputs, locality)| GeneratorConfig {
            seed,
            layers,
            width,
            inputs,
            locality_pct: locality,
            ..GeneratorConfig::default()
        },
    )
}

/// Schedules with frame recording on and returns the final pass's
/// snapshots plus the outcome.
fn schedule_recorded(
    dfg: &Dfg,
    spec: &TimingSpec,
    t: u32,
) -> (
    Vec<FrameSnapshot>,
    moveframe_hls::moveframe::mfs::MfsOutcome,
) {
    let config = MfsConfig::time_constrained(t).with_frame_recording();
    let outcome = mfs::schedule(dfg, spec, &config).expect("feasible time constraint");
    (outcome.snapshots.clone(), outcome)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn move_frames_stay_inside_the_primary_frame(
        config in config_strategy(),
        slack in 0u32..4,
    ) {
        let dfg = generate(&config);
        let spec = TimingSpec::uniform_single_cycle();
        let cp = CriticalPath::compute(&dfg, &spec).steps() as u32;
        let (snapshots, _) = schedule_recorded(&dfg, &spec, cp + slack);
        prop_assert_eq!(snapshots.len(), dfg.node_count());
        for snap in &snapshots {
            let (asap, alap) = snap.primary;
            prop_assert!(asap <= alap);
            for p in &snap.movable {
                // MF ⊆ PF: inside the time range and the column budget.
                prop_assert!(
                    p.step >= asap && p.step <= alap,
                    "node {:?}: step {} outside PF [{}, {}]",
                    snap.node, p.step.get(), asap.get(), alap.get()
                );
                prop_assert!(
                    p.fu.get() >= 1 && p.fu.get() <= snap.max_fu,
                    "node {:?}: column {} outside [1, {}]",
                    snap.node, p.fu.get(), snap.max_fu
                );
            }
        }
    }

    #[test]
    fn move_frames_never_touch_the_redundant_frame(config in config_strategy()) {
        let dfg = generate(&config);
        let spec = TimingSpec::uniform_single_cycle();
        let cp = CriticalPath::compute(&dfg, &spec).steps() as u32;
        let (snapshots, _) = schedule_recorded(&dfg, &spec, cp + 1);
        for snap in &snapshots {
            // RF = columns (current_j, max_j]: invisible to the frame.
            prop_assert!(snap.current_fu <= snap.max_fu);
            for p in &snap.movable {
                prop_assert!(
                    p.fu.get() <= snap.current_fu,
                    "node {:?}: column {} is in RF (current_j = {})",
                    snap.node, p.fu.get(), snap.current_fu
                );
            }
        }
    }

    #[test]
    fn move_frames_never_touch_the_forbidden_frame(
        config in config_strategy(),
        slack in 0u32..3,
    ) {
        let dfg = generate(&config);
        let spec = TimingSpec::uniform_single_cycle();
        let cp = CriticalPath::compute(&dfg, &spec).steps() as u32;
        let (snapshots, _) = schedule_recorded(&dfg, &spec, cp + slack);
        for snap in &snapshots {
            // FF = dependency-excluded steps below `earliest_feasible`
            // or above `latest_feasible`.
            for p in &snap.movable {
                prop_assert!(
                    p.step >= snap.earliest_feasible && p.step <= snap.latest_feasible,
                    "node {:?}: step {} is in FF (feasible [{}, {}])",
                    snap.node, p.step.get(),
                    snap.earliest_feasible.get(), snap.latest_feasible.get()
                );
            }
        }
    }

    #[test]
    fn committed_moves_respect_predecessor_precedence(
        config in config_strategy(),
        slack in 0u32..4,
    ) {
        let dfg = generate(&config);
        let spec = TimingSpec::two_cycle_multiply();
        let cp = CriticalPath::compute(&dfg, &spec).steps() as u32;
        let (_, outcome) = schedule_recorded(&dfg, &spec, cp + slack);
        prop_assert!(outcome.schedule.is_complete());
        let v = verify(&dfg, &outcome.schedule, &spec, VerifyOptions::default());
        prop_assert!(v.is_empty(), "{v:?}");
        for node in dfg.node_ids() {
            let start = outcome.schedule.start(node).expect("complete schedule");
            for &p in dfg.preds(node) {
                let pf = outcome
                    .schedule
                    .finish(p, &dfg, &spec)
                    .expect("complete schedule");
                prop_assert!(
                    start > pf,
                    "{:?} starts at {} but its predecessor {:?} finishes at {}",
                    node, start.get(), p, pf.get()
                );
            }
        }
    }

    #[test]
    fn local_rescheduling_terminates_within_the_column_budget(
        config in config_strategy(),
    ) {
        // Each empty frame either widens current_j toward max_j or grows
        // a derived max_j toward node_count + 1, so per class the bumps
        // are bounded by ~2 · (node_count + 2); termination is
        // structural, not lucky.
        let dfg = generate(&config);
        let spec = TimingSpec::uniform_single_cycle();
        let cp = CriticalPath::compute(&dfg, &spec).steps() as u32;
        let (_, outcome) = schedule_recorded(&dfg, &spec, cp);
        let classes = dfg.class_counts().len() as u32;
        let bound = classes * 2 * (dfg.node_count() as u32 + 2);
        prop_assert!(
            outcome.reschedule_count <= bound,
            "{} reschedules exceed the structural bound {}",
            outcome.reschedule_count, bound
        );
    }
}

/// Schedules a memory-bearing DFG with frame recording on, searching
/// upward from the dependency critical path for the first time
/// constraint the bank ports admit.
fn schedule_memory_recorded(
    dfg: &Dfg,
    spec: &TimingSpec,
    slack: u32,
) -> (
    Vec<FrameSnapshot>,
    moveframe_hls::moveframe::mfs::MfsOutcome,
) {
    let cp = CriticalPath::compute(dfg, spec).steps() as u32;
    for t in cp..cp + 64 {
        let config = MfsConfig::time_constrained(t + slack).with_frame_recording();
        if let Ok(outcome) = mfs::schedule(dfg, spec, &config) {
            return (outcome.snapshots.clone(), outcome);
        }
    }
    panic!("no feasible time constraint within cp + 64");
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn move_frames_never_touch_the_access_conflict_frame(
        taps in 2usize..6,
        ports in 1u32..4,
        slack in 0u32..3,
    ) {
        let dfg = memory::array_fir(taps, ports);
        let spec = TimingSpec::uniform_single_cycle();
        let (snapshots, _) = schedule_memory_recorded(&dfg, &spec, slack);
        prop_assert_eq!(snapshots.len(), dfg.node_count());
        let mut saw_af = false;
        for snap in &snapshots {
            if !matches!(snap.class, FuClass::Mem(_)) {
                // AF is a memory-port notion; a fully-occupied step of an
                // ALU class is an ordinary resource conflict, not AF.
                prop_assert!(
                    snap.af_steps.is_empty(),
                    "node {:?}: non-memory class {:?} has AF {:?}",
                    snap.node, snap.class, snap.af_steps
                );
                continue;
            }
            saw_af |= !snap.af_steps.is_empty();
            for s in &snap.af_steps {
                // AF ⊆ the dependency-feasible range: it collects steps
                // excluded *solely* by port occupancy, so FF and AF are
                // disjoint by construction.
                prop_assert!(
                    *s >= snap.earliest_feasible && *s <= snap.latest_feasible,
                    "node {:?}: AF step {} outside the feasible range [{}, {}]",
                    snap.node, s.get(),
                    snap.earliest_feasible.get(), snap.latest_feasible.get()
                );
            }
            for p in &snap.movable {
                // MF ∩ AF = ∅: the move frame never offers a step whose
                // bank ports are all taken.
                prop_assert!(
                    !snap.af_steps.contains(&p.step),
                    "node {:?}: movable step {} is in AF {:?}",
                    snap.node, p.step.get(), snap.af_steps
                );
            }
        }
        if ports == 1 && slack == 0 {
            // At one port and zero slack the load phase is saturated, so
            // at least one access must have seen a port-conflict step.
            prop_assert!(saw_af, "expected a non-empty AF at ports=1");
        }
    }

    #[test]
    fn schedules_never_exceed_bank_port_counts(
        n in 2usize..5,
        ports in 1u32..4,
        slack in 0u32..3,
    ) {
        let dfg = memory::matvec(n, ports);
        let spec = TimingSpec::uniform_single_cycle();
        let (_, outcome) = schedule_memory_recorded(&dfg, &spec, slack);
        prop_assert!(outcome.schedule.is_complete());
        // The independent witness re-derives occupancy from the bound
        // schedule: no step oversubscribes a bank, no port is
        // double-booked, no binding names a port past the bank's count.
        let violations = check_port_safety(&dfg, &outcome.schedule)
            .expect("complete, port-bound schedule");
        prop_assert!(violations.is_empty(), "{violations:?}");
        let pressure = port_pressure(&dfg, &outcome.schedule)
            .expect("complete, port-bound schedule");
        for bank in dfg.memory().banks() {
            prop_assert!(
                pressure.peak(bank.id()) <= bank.ports(),
                "bank {} peak {} exceeds {} port(s)",
                bank.name(), pressure.peak(bank.id()), bank.ports()
            );
        }
    }
}

/// Runs MFS with metrics and returns the outcome (or the error text)
/// with the metrics as JSON, timing histograms removed.
fn run_counted(
    dfg: &Dfg,
    spec: &TimingSpec,
    config: &MfsConfig,
) -> (
    Result<moveframe_hls::moveframe::mfs::MfsOutcome, String>,
    String,
) {
    let mut sink = NullSink;
    let mut metrics = Metrics::new();
    let outcome = mfs::schedule_traced(
        dfg,
        spec,
        config,
        &mut Instrument::new(&mut sink, &mut metrics),
    )
    .map_err(|e| e.to_string());
    metrics.retain(|name| !name.ends_with(".ns"));
    (outcome, metrics.to_json())
}

/// Frame recording only adds the snapshots: the placement search is
/// the same first-fit walk either way, so schedules, grids and every
/// counter agree (and in debug builds each recorded frame's
/// minimum-energy cell is checked against the first-fit cell).
fn assert_recording_changes_nothing(dfg: &Dfg, spec: &TimingSpec, config: MfsConfig) {
    let (plain, plain_metrics) = run_counted(dfg, spec, &config);
    let (recorded, metrics) = run_counted(dfg, spec, &config.with_frame_recording());
    assert_eq!(plain_metrics, metrics);
    match (plain, recorded) {
        (Ok(a), Ok(b)) => {
            assert_eq!(a.schedule, b.schedule);
            assert_eq!(a.grids, b.grids);
            assert_eq!(a.reschedule_count, b.reschedule_count);
            assert!(a.snapshots.is_empty());
            assert_eq!(b.snapshots.len(), dfg.node_count());
        }
        (Err(a), Err(b)) => assert_eq!(a, b),
        (a, b) => panic!(
            "recording changed feasibility: {:?} vs {:?}",
            a.err(),
            b.err()
        ),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn frame_recording_changes_no_schedule_or_counter(
        config in config_strategy(),
        slack in 0u32..4,
        spec_idx in 0usize..3,
        margin in 0u32..3,
    ) {
        let dfg = generate(&config);
        let (spec, clock) = match spec_idx {
            0 => (TimingSpec::uniform_single_cycle(), None),
            1 => (TimingSpec::two_cycle_multiply(), None),
            _ => (TimingSpec::with_delays(), Some(ClockPeriod::new(100))),
        };
        let cp = CriticalPath::compute(&dfg, &spec).steps() as u32;
        let mut time = MfsConfig::time_constrained(cp + slack);
        if let Some(t) = clock {
            time = time.with_chaining(t);
        }
        assert_recording_changes_nothing(&dfg, &spec, time.clone());

        // Resource-constrained: the time run's unit counts plus a
        // margin (which may or may not be feasible — both runs must
        // agree either way).
        if let Ok(out) = mfs::schedule(&dfg, &spec, &time) {
            let mut resource = MfsConfig::resource_constrained(cp + slack);
            for (class, units) in out.fu_counts() {
                resource = resource.with_fu_limit(class, (units + margin).saturating_sub(1).max(1));
            }
            assert_recording_changes_nothing(&dfg, &spec, resource);
        }
    }

    #[test]
    fn frame_recording_changes_nothing_under_memory_banks(
        taps in 2usize..6,
        ports in 1u32..4,
        slack in 0u32..3,
    ) {
        let dfg = memory::array_fir(taps, ports);
        let spec = TimingSpec::uniform_single_cycle();
        let cp = CriticalPath::compute(&dfg, &spec).steps() as u32;
        for t in cp..cp + 8 {
            assert_recording_changes_nothing(&dfg, &spec, MfsConfig::time_constrained(t + slack));
        }
    }
}
