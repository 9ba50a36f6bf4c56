//! The fast allocator against the reference: the interned and pruned
//! solver in `p4rp_compiler::alloc` must be observationally equivalent to
//! the naive DFS preserved in `alloc_reference` — same feasibility verdict
//! and the same (exact) objective on every program and plane state — plus
//! regression tests that the benchmark-shaped resident load keeps its
//! allocations at a bounded solver cost, that batched `deploy_many`
//! commits never double-book memory or table entries, and that they report
//! exactly what fast-path `deploy` calls do.
//!
//! The reference is the §4.3 model written out directly, with no pruning
//! beyond the `x_L` bound; the fast solver adds suffix-capacity cuts,
//! free-slot dominance and a look-ahead bound from constraints (1) and
//! (4), all of which must be invisible in the result. Both run with a node
//! budget large enough that neither truncates on these program sizes, so
//! exact equality (not just "no worse") is the right assertion.

use proptest::prelude::*;
use p4runpro::p4rp_compiler::alloc::{allocate, AllocConfig, AllocView, Objective};
use p4runpro::p4rp_compiler::ir::{lower, MemDecl};
use p4runpro::p4rp_dataplane::{NUM_RPBS, RPB_MEM_SIZE, RPB_TABLE_SIZE};
use p4runpro::p4rp_lang::parse;
use p4runpro::p4rp_compiler::CompileError;
use p4runpro::p4rp_ctl::{Controller, CtlError, DeployReport};
use p4runpro::p4rp_progs::{instance, Family, WorkloadParams};
use p4runpro::rmt_sim::trace::TraceConfig;

/// A one-level register op.
fn arb_reg_op() -> impl Strategy<Value = String> {
    let reg = prop::sample::select(vec!["har", "sar", "mar"]);
    let simple = (reg.clone(), 0u32..1000).prop_map(|(r, i)| format!("LOADI({r}, {i});"));
    let two = (reg.clone(), reg, prop::sample::select(vec!["ADD", "XOR", "MIN", "MAX"]))
        .prop_filter_map("distinct regs", |(a, b, op)| {
            (a != b).then(|| format!("{op}({a}, {b});"))
        });
    prop_oneof![simple, two]
}

fn arb_forward() -> impl Strategy<Value = String> {
    prop::sample::select(vec!["FORWARD(5);", "DROP;"]).prop_map(str::to_string)
}

/// Random program source. Short programs mix register ops, up to two
/// accesses to each of two virtual memories (R = 1 permits at most two
/// passes) and forwarding primitives anywhere. Deep ones run 10–11
/// register ops and end in one or two of FORWARD/DROP: constraint (4)
/// confines that tail to ingress RPBs and so rules out every late `x_1`,
/// the case the fast solver's look-ahead bound cuts at the root and the
/// reference only finds at the leaves. Their depth is capped so the
/// reference's exhaustive search of those `x_1` stays inside its budget.
fn arb_source() -> impl Strategy<Value = String> {
    let mem = prop::sample::select(vec![
        "LOADI(mar, 3); MEMREAD(ma);",
        "HASH_5_TUPLE_MEM(ma); MEMADD(ma);",
        "LOADI(mar, 7); MEMWRITE(mb);",
        "HASH_5_TUPLE_MEM(mb); MEMMAX(mb);",
    ])
    .prop_map(str::to_string);
    let stmt = prop_oneof![arb_reg_op(), mem, arb_forward()];
    let short = proptest::collection::vec(stmt, 1..8);
    let deep = (
        proptest::collection::vec(arb_reg_op(), 10..12),
        proptest::collection::vec(arb_forward(), 1..3),
    )
        .prop_map(|(mut body, tail)| {
            body.extend(tail);
            body
        });
    prop_oneof![short, deep]
        .prop_filter("≤2 accesses per memory", |stmts| {
            let joined = stmts.join(" ");
            joined.matches("(ma)").count() <= 2 && joined.matches("(mb)").count() <= 2
        })
        .prop_map(|stmts| {
            format!(
                "@ ma 256\n@ mb 128\nprogram p(<hdr.ipv4.dst, 10.0.0.1, 0xffffffff>) {{\n    {}\n}}\n",
                stmts.join("\n    ")
            )
        })
}

/// Random plane state: every RPB keeps full, reduced, or fragmented
/// entries and memory. Realism doesn't matter — both solvers must agree
/// on *any* view — but mixing full and tight RPBs exercises both the
/// feasible and infeasible paths.
fn arb_view() -> impl Strategy<Value = AllocView> {
    // Unweighted arms: repeat the full-capacity case so most RPBs stay
    // usable and the feasible path gets real coverage.
    let te = prop_oneof![
        Just(RPB_TABLE_SIZE),
        Just(RPB_TABLE_SIZE),
        Just(RPB_TABLE_SIZE),
        Just(RPB_TABLE_SIZE),
        0usize..8,
        8usize..64,
    ];
    let mem = prop_oneof![
        Just(vec![RPB_MEM_SIZE]),
        Just(vec![RPB_MEM_SIZE]),
        Just(vec![RPB_MEM_SIZE]),
        Just(vec![RPB_MEM_SIZE]),
        Just(vec![]),
        proptest::collection::vec(0u32..512, 1..3),
        Just(vec![300, RPB_MEM_SIZE / 2]),
    ];
    (
        proptest::collection::vec(te, NUM_RPBS..NUM_RPBS + 1),
        proptest::collection::vec(mem, NUM_RPBS..NUM_RPBS + 1),
    )
        .prop_map(|(te_free, mem_free)| AllocView { te_free, mem_free })
}

fn arb_objective() -> impl Strategy<Value = Objective> {
    prop_oneof![
        Just(Objective::LastOnly),
        Just(Objective::Hierarchical),
        Just(Objective::paper_default()),
        Just(Objective::WeightedDiff { alpha: 0.5, beta: 0.5 }),
        Just(Objective::Ratio),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Fast solver ≡ reference DFS: same verdict, same objective, and an
    /// `x_L` that is no worse, on random programs × planes × objectives.
    #[test]
    fn fast_solver_matches_reference(
        src in arb_source(),
        view in arb_view(),
        objective in arb_objective(),
    ) {
        let unit = parse(&src).unwrap();
        let mems: Vec<MemDecl> = unit.annotations.iter()
            .map(|a| MemDecl { name: a.name.clone(), size: a.size as u32 })
            .collect();
        let ir = lower(&unit.programs[0], &mems).unwrap();
        // Budget high enough that neither solver truncates at this size:
        // completeness makes exact equality the correct assertion.
        let fast_cfg = AllocConfig { objective, node_budget: 20_000_000, ..AllocConfig::default() };
        let ref_cfg = AllocConfig { reference: true, ..fast_cfg };

        let fast = allocate(&ir, &view, &fast_cfg);
        let reference = allocate(&ir, &view, &ref_cfg);
        match (fast, reference) {
            (Ok(f), Ok(r)) => {
                // Each inner search gets the whole budget, so a total
                // below it proves no search of the reference was cut short.
                prop_assert!(
                    r.nodes_explored < ref_cfg.node_budget,
                    "reference may have truncated: {} nodes", r.nodes_explored,
                );
                prop_assert!(
                    (f.objective_value - r.objective_value).abs() < 1e-9,
                    "objective diverged: fast {} vs reference {} (x {:?} vs {:?})",
                    f.objective_value, r.objective_value, f.x, r.x,
                );
                prop_assert!(
                    f.x.last() <= r.x.last(),
                    "fast x_L worse: {:?} vs {:?}", f.x, r.x,
                );
                prop_assert_eq!(f.passes, r.passes);
                prop_assert!(
                    f.nodes_explored <= r.nodes_explored,
                    "pruned solver explored more nodes: {} vs {}",
                    f.nodes_explored, r.nodes_explored,
                );
            }
            (Err(_), Err(_)) => {} // Same verdict: infeasible for both.
            (f, r) => prop_assert!(
                false,
                "verdict diverged: fast {:?} vs reference {:?}",
                f.map(|a| a.x), r.map(|a| a.x),
            ),
        }
    }
}

/// The allocation every resident of a family gets in the load below, as
/// `(family, x_1, x_L)` with the levels on consecutive indices. `hh`,
/// `nc` and `fw` end in two forwarding levels, which must both sit in
/// ingress RPBs; here they land on 23 and 24, the second pass's first two.
const LOAD_X: [(&str, u16, u16); 15] = [
    ("cache", 1, 10),
    ("lb", 1, 8),
    ("hh", 2, 24),
    ("nc", 2, 24),
    ("dqacc", 1, 6),
    ("fw", 14, 24),
    ("l2", 1, 3),
    ("l3", 1, 3),
    ("tun", 1, 3),
    ("calc", 1, 7),
    ("ecn", 1, 5),
    ("cms", 1, 8),
    ("bf", 1, 8),
    ("sumax", 1, 8),
    ("hll", 1, 6),
];

/// The repository benchmark's initial load — 128 residents built by
/// `p4rp_progs::instance`, the 15 families in turn, rotated by the seed —
/// deployed one by one into the default controller. Every allocation
/// must keep the placement in `LOAD_X`, and no deploy may take more than
/// 1,000 solver nodes: node counts are exact per input, so this guards
/// the solver's cost on realistic programs without a timing constant.
/// A search that finds out only at the leaves that a late `x_1` leaves
/// the forwarding tail no ingress RPB spends millions of nodes on the
/// deep `hh`, `nc` and `fw` residents.
#[test]
fn benchmark_load_keeps_its_allocations_cheaply() {
    for seed in [1usize, 7] {
        let mut ctl = Controller::with_defaults().unwrap();
        for i in 0..128 {
            let family = Family::ALL[(i + seed) % Family::ALL.len()];
            let reports = ctl.deploy(&instance(family, i, WorkloadParams::default())).unwrap();
            for r in &reports {
                let &(_, first, last) = LOAD_X
                    .iter()
                    .find(|(name, ..)| *name == family.name())
                    .expect("every family has a recorded allocation");
                let want: Vec<u16> = (first..=last).collect();
                let got = &ctl.program(&r.name).unwrap().allocation.x;
                assert_eq!(got, &want, "seed {seed}: `{}` moved", r.name);
                assert!(
                    r.alloc_nodes <= 1_000,
                    "seed {seed}: `{}` took {} solver nodes",
                    r.name,
                    r.alloc_nodes
                );
            }
        }
    }
}

/// Conflicting batched deploys must never double-book resources: every
/// program wants the same placement on an empty plane, so each must be
/// allocated against the live view its predecessors left behind.
/// Granted regions must end up pairwise disjoint, and the invariant
/// checker must stay quiet through deploy-under-replay.
#[test]
fn batched_deploys_never_double_book() {
    let mut ctl = Controller::with_defaults().unwrap();
    ctl.enable_trace(TraceConfig::default());

    // Each program wants an entire RPB's memory (sizes must be powers of
    // two for mask-based address translation), so no two fit in the RPB
    // an empty plane steers them all toward.
    let big = RPB_MEM_SIZE;
    let sources: Vec<String> = (0..6)
        .map(|i| {
            format!(
                "@ m{i} {big}\nprogram p{i}(<hdr.ipv4.dst, 10.1.{i}.1, 0xffffffff>) \
                 {{ LOADI(mar, 1); MEMREAD(m{i}); MODIFY(hdr.ipv4.ttl, har); }}"
            )
        })
        .collect();
    let results = ctl.deploy_many(&sources);
    assert_eq!(results.len(), 6);
    for r in &results {
        r.as_ref().expect("plane has room for all six in distinct RPBs");
    }

    // No two granted regions overlap within an RPB.
    let mut regions: Vec<(u8, u32, u32)> = Vec::new();
    for (_, p) in ctl.deployed_programs() {
        for r in &p.image.mem_regions {
            regions.push((r.rpb.0, r.offset, r.size));
        }
    }
    assert_eq!(regions.len(), 6);
    for (i, a) in regions.iter().enumerate() {
        for b in &regions[i + 1..] {
            if a.0 == b.0 {
                let disjoint = a.1 + a.2 <= b.1 || b.1 + b.2 <= a.1;
                assert!(disjoint, "regions overlap: {a:?} vs {b:?}");
            }
        }
    }

    // Distinct values written per program read back intact — aliased
    // regions would clobber each other.
    for i in 0..6u32 {
        ctl.write_memory(&format!("p{i}"), &format!("m{i}"), 9, 1000 + i).unwrap();
    }
    for i in 0..6u32 {
        let v = ctl.read_memory(&format!("p{i}"), &format!("m{i}")).unwrap();
        assert_eq!(v[9], 1000 + i, "program p{i} lost its write");
    }

    // Deploy-under-replay: traffic through the freshly committed plane,
    // then tear half down, with the flight recorder's invariant checker
    // watching the whole time.
    let frame = p4runpro::traffic::frame_for(
        &p4runpro::netpkt::FiveTuple {
            src_addr: std::net::Ipv4Addr::new(10, 9, 9, 9),
            dst_addr: std::net::Ipv4Addr::new(10, 1, 0, 1),
            src_port: 4000,
            dst_port: 5000,
            protocol: 17,
        },
        8,
    );
    for _ in 0..64 {
        ctl.inject(1, &frame).unwrap();
    }
    let names: Vec<String> = (0..3).map(|i| format!("p{i}")).collect();
    for r in ctl.revoke_many(&names) {
        r.unwrap();
    }
    assert_eq!(ctl.deployed_programs().count(), 3);
    let stats = ctl.trace_stats();
    assert!(stats.enabled);
    assert_eq!(stats.violations, 0, "invariant checker flagged the fast path");
}

/// The same shape deployed many times exercises the entry-generation
/// cache; outputs must stay per-instance (distinct prog ids and offsets
/// were already covered by the unit test — here the whole pipeline runs).
#[test]
fn deploy_many_reuses_entry_templates() {
    let mut ctl = Controller::with_defaults().unwrap();
    let sources: Vec<String> = (0..8)
        .map(|i| {
            format!(
                "@ m 64\nprogram q{i}(<hdr.ipv4.dst, 10.2.{i}.1, 0xffffffff>) \
                 {{ LOADI(mar, 2); MEMADD(m); }}"
            )
        })
        .collect();
    for r in ctl.deploy_many(&sources) {
        r.unwrap();
    }
    let (hits, misses) = ctl.entry_cache_stats();
    assert_eq!(hits + misses, 8);
    assert!(hits >= 6, "identical shapes should hit the template cache: {hits} hits");
}

/// The deterministic slice of a deploy report: everything but wall-clock.
fn report_facts(r: &DeployReport) -> (String, u16, usize, usize, u8, u64) {
    (r.name.clone(), r.prog_id, r.entries_installed, r.depth, r.passes, r.update_delay.0)
}

/// `deploy` with the fast path on and `deploy_many` are one path: the same
/// source sequence gives identical reports and verdicts on both. A source
/// whose second program cannot be placed pins the shared best-effort
/// semantics: its first program stays installed on both.
#[test]
fn fast_path_deploy_matches_deploy_many() {
    // Sixty-four dependent register writes need more logical RPBs than
    // two passes provide, so the allocator rejects the program.
    let too_deep: String = (0..64).map(|i| format!("LOADI(har, {i}); ")).collect();
    let sources: Vec<String> = vec![
        "@ m 256\nprogram a(<hdr.ipv4.dst, 10.3.0.1, 0xffffffff>) \
         { LOADI(mar, 1); MEMADD(m); }"
            .into(),
        format!(
            "program b(<hdr.ipv4.dst, 10.3.1.1, 0xffffffff>) {{ FORWARD(2); }}\n\
             program c(<hdr.ipv4.dst, 10.3.2.1, 0xffffffff>) {{ {too_deep}}}"
        ),
        "@ m 64\nprogram d(<hdr.ipv4.dst, 10.3.3.1, 0xffffffff>) \
         { HASH_5_TUPLE_MEM(m); MEMMAX(m); }\n\
         program e(<hdr.ipv4.dst, 10.3.4.1, 0xffffffff>) { DROP; }"
            .into(),
        // Already resident: rejected by both.
        "program a(<hdr.ipv4.dst, 10.3.5.1, 0xffffffff>) { DROP; }".into(),
        "@ m 1024\nprogram f(<hdr.udp.dst_port, 7777, 0xffff>) \
         { EXTRACT(hdr.nc.key1, mar); LOADI(mar, 512); MEMREAD(m); FORWARD(32); }"
            .into(),
    ];

    let mut single = Controller::with_defaults().unwrap();
    single.set_fast_path(true);
    let mut batched = Controller::with_defaults().unwrap();
    let many = batched.deploy_many(&sources);
    assert_eq!(many.len(), sources.len());
    for (src, b) in sources.iter().zip(&many) {
        match (single.deploy(src), b) {
            (Ok(s), Ok(b)) => {
                let s: Vec<_> = s.iter().map(report_facts).collect();
                let b: Vec<_> = b.iter().map(report_facts).collect();
                assert_eq!(s, b, "reports diverged for {src}");
            }
            (Err(s), Err(b)) => assert_eq!(s.to_string(), b.to_string(), "{src}"),
            (s, b) => panic!("verdicts diverged for {src}: {s:?} vs {b:?}"),
        }
    }
    assert!(
        matches!(many[1], Err(CtlError::Compile(CompileError::TooDeep { .. }))),
        "{:?}",
        many[1]
    );
    assert!(matches!(many[3], Err(CtlError::DuplicateProgram(_))), "{:?}", many[3]);

    for ctl in [&single, &batched] {
        let mut names: Vec<&String> = ctl.deployed_programs().map(|(n, _)| n).collect();
        names.sort();
        assert_eq!(names, ["a", "b", "d", "e", "f"]);
        assert!(ctl.audit().unwrap().clean());
    }
}
