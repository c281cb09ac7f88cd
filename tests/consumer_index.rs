//! Differential test of `Dfg::consumers` — the CSR consumer index built
//! with the graph — against the naive scan it replaced, kept here as
//! the oracle. Covers the paper examples, generated and clustered
//! graphs, memory graphs with ordering tokens, and the outputs of every
//! graph transformation.

use std::collections::BTreeSet;

use moveframe_hls::benchmarks::generate::{
    clustered_workload, generate, generate_clustered, scaling_workload, GeneratorConfig,
};
use moveframe_hls::benchmarks::{classic, examples, memory};
use moveframe_hls::celllib::{OpKind, TimingSpec};
use moveframe_hls::dfg::transform::{
    duplicate_instances, expand_structural_stages, fold_all_loops, prune_shared_branch_ops,
};
use moveframe_hls::dfg::{parse_dfg, Dfg, DfgBuilder, NodeId, SignalId, SignalSource};

/// The O(nodes) scan `Dfg::consumers` used to run on every call.
fn scan_consumers(dfg: &Dfg, sig: SignalId) -> Vec<NodeId> {
    dfg.nodes()
        .filter(|(_, n)| n.inputs().contains(&sig))
        .map(|(id, _)| id)
        .collect()
}

/// Asserts the index equals the oracle for every signal, and that
/// `design_outputs` is exactly the produced-but-unconsumed signals.
fn assert_index_matches_scan(dfg: &Dfg) {
    for (sid, _) in dfg.signals() {
        assert_eq!(
            dfg.consumers(sid),
            scan_consumers(dfg, sid).as_slice(),
            "{}: consumers of {sid}",
            dfg.name()
        );
    }
    let outputs: Vec<SignalId> = dfg
        .signals()
        .filter(|(sid, s)| {
            matches!(s.source(), SignalSource::Node(_)) && scan_consumers(dfg, *sid).is_empty()
        })
        .map(|(sid, _)| sid)
        .collect();
    assert_eq!(
        dfg.design_outputs().collect::<Vec<_>>(),
        outputs,
        "{}",
        dfg.name()
    );
}

fn branchy(seed: u64) -> Dfg {
    generate(&GeneratorConfig {
        seed,
        layers: 6,
        width: 12,
        inputs: 5,
        branch_pct: 40,
        ..GeneratorConfig::default()
    })
}

#[test]
fn paper_examples_and_classics() {
    for e in examples::all() {
        assert_index_matches_scan(&e.dfg);
    }
    for dfg in [
        classic::diffeq(),
        classic::fir(8),
        classic::ar_filter(),
        classic::ewf(),
        classic::facet_style(),
        classic::dct8(),
        classic::bandpass(),
    ] {
        assert_index_matches_scan(&dfg);
    }
}

#[test]
fn generated_and_clustered_graphs() {
    assert_index_matches_scan(&generate(&scaling_workload(1000)));
    assert_index_matches_scan(&generate_clustered(&clustered_workload(3000)));
    for seed in 0..8 {
        assert_index_matches_scan(&branchy(seed));
    }
}

#[test]
fn memory_graphs_with_ordering_tokens() {
    for dfg in [memory::array_fir(8, 1), memory::matvec(3, 2)] {
        assert!(dfg.has_memory());
        assert_index_matches_scan(&dfg);
    }
    let firmem = parse_dfg(include_str!("../examples/firmem.dfg")).unwrap();
    // The loads carry ordering tokens on the stores they follow.
    assert!(firmem
        .nodes()
        .any(|(_, n)| n.kind().is_mem_access() && n.inputs().len() > 2));
    assert_index_matches_scan(&firmem);
}

#[test]
fn transformed_graphs() {
    for seed in 0..4 {
        let (pruned, _) = prune_shared_branch_ops(&branchy(seed)).unwrap();
        assert_index_matches_scan(&pruned);
    }

    let mut b = DfgBuilder::new("loops");
    let x = b.input("x");
    let y = b.input("y");
    b.begin_loop("outer", 9);
    let t = b.op("t", OpKind::Mul, &[x, y]).unwrap();
    b.begin_loop("inner", 4);
    let u = b.op("u", OpKind::Add, &[t, x]).unwrap();
    b.end_loop();
    let v = b.op("v", OpKind::Sub, &[u, t]).unwrap();
    b.end_loop();
    b.op("done", OpKind::Add, &[v, x]).unwrap();
    let looped = b.finish().unwrap();
    assert_index_matches_scan(&looped);
    let (folded, reports) = fold_all_loops(&looped).unwrap();
    assert!(!reports.is_empty());
    assert_index_matches_scan(&folded);

    for copies in [1, 3] {
        let (dup, _) = duplicate_instances(&classic::diffeq(), copies).unwrap();
        assert_index_matches_scan(&dup);
    }
    let (dup, _) = duplicate_instances(&memory::array_fir(4, 1), 2).unwrap();
    assert_index_matches_scan(&dup);

    let pipelined: BTreeSet<OpKind> = [OpKind::Mul].into_iter().collect();
    let (staged, report) = expand_structural_stages(
        &classic::ewf(),
        &TimingSpec::two_cycle_multiply(),
        &pipelined,
    )
    .unwrap();
    assert!(report.count() > 0);
    assert_index_matches_scan(&staged);
}

/// A node reading one signal twice is listed once, as the scan did.
#[test]
fn a_node_reading_a_signal_twice_is_listed_once() {
    let mut b = DfgBuilder::new("square");
    let x = b.input("x");
    let sq = b.op("sq", OpKind::Mul, &[x, x]).unwrap();
    b.op("cube", OpKind::Mul, &[sq, x]).unwrap();
    b.op("quad", OpKind::Mul, &[sq, sq]).unwrap();
    let dfg = b.finish().unwrap();
    assert_index_matches_scan(&dfg);
    let names = |sig| -> Vec<&str> {
        dfg.consumers(sig)
            .iter()
            .map(|&n| dfg.node(n).name())
            .collect()
    };
    assert_eq!(names(x), ["sq", "cube"]);
    assert_eq!(names(sq), ["cube", "quad"]);
}

/// `Dfg::to_text` writes a memory access's index inline only when the
/// parser-made constant has exactly that access as its one consumer, so
/// the round trip pins the exact consumer lists.
#[test]
fn memory_text_with_inline_index_constants_round_trips() {
    let source = "\
dfg inline_idx
input a, b
bank ram(ports=2)
array v[4] @ ram
store s0 = v[0], a
store s1 = v[3], b
load l0 = v[0]
load l1 = v[3]
op p = mul(l0, l1)
op q = add(p, a)
";
    let dfg = parse_dfg(source).unwrap();
    assert_index_matches_scan(&dfg);
    let text = dfg.to_text().unwrap();
    assert_eq!(text, source);
    assert_eq!(parse_dfg(&text).unwrap().to_text().unwrap(), text);

    let firmem = parse_dfg(include_str!("../examples/firmem.dfg")).unwrap();
    let text = firmem.to_text().unwrap();
    assert_eq!(
        text,
        "\
dfg firmem
input c0, c1, c2, c3, x0, x1, x2, x3
bank ram(ports=1)
array c[4] @ ram
store c.store0 = c[0], c0
store c.store1 = c[1], c1
store c.store2 = c[2], c2
store c.store3 = c[3], c3
load r0 = c[0]
load r1 = c[1]
load r2 = c[2]
load r3 = c[3]
op m0 = mul(r0, x0)
op m1 = mul(r1, x1)
op m2 = mul(r2, x2)
op m3 = mul(r3, x3)
op a0 = add(m0, m1)
op a1 = add(m2, m3)
op y = add(a0, a1)
"
    );
    assert_eq!(parse_dfg(&text).unwrap().to_text().unwrap(), text);

    // An index constant shaped like an inline one but also read by an
    // operation has two consumers, so it is written as a named const.
    for shared in [false, true] {
        let mut b = DfgBuilder::new("shared_idx");
        let a = b.input("a");
        let bank = b.declare_bank("ram", 1);
        let v = b.declare_array("v", 4, bank);
        let idx = b.constant("ld.idx", 2);
        let ld = b.load("ld", v, idx).unwrap();
        let rhs = if shared { idx } else { a };
        b.op("p", OpKind::Add, &[ld, rhs]).unwrap();
        let dfg = b.finish().unwrap();
        assert_index_matches_scan(&dfg);
        let text = dfg.to_text().unwrap();
        if shared {
            assert!(text.contains("const ld.idx = 2\n"), "{text}");
            assert!(text.contains("load ld = v[ld.idx]\n"), "{text}");
            assert!(text.contains("op p = add(ld, ld.idx)\n"), "{text}");
        } else {
            assert!(text.contains("load ld = v[2]\n"), "{text}");
            assert!(!text.contains("const"), "{text}");
        }
    }
}
