//! Differential test of `ProcessGraph::validate`.
//!
//! The linear-time validator must return exactly what the per-activity
//! search definition it replaced returned — the same first violation,
//! message included — on three kinds of graph: plans lowered from
//! `random_tree`, single-edit mutants of those, and raw random graphs.
//! The replaced definition is kept below, verbatim, as the oracle.

use gridflow_plan::tree_to_graph;
use gridflow_planner::genetic::random_tree;
use gridflow_process::{
    ActivityDecl, ActivityKind, Condition, ProcessError, ProcessGraph, Result, Transition,
};
use rand::seq::SliceRandom;
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;
use std::collections::BTreeMap;

/// `ProcessGraph::validate` as it stood before the linear-time rewrite,
/// with `self` spelled `g`: O(V·(V+E)), one reachability search per
/// activity.  It panics on a transition whose source names no activity,
/// which the builder API used here cannot produce.
fn oracle_validate(g: &ProcessGraph) -> Result<()> {
    let begins: Vec<_> = g
        .activities()
        .iter()
        .filter(|a| a.kind == ActivityKind::Begin)
        .collect();
    let ends: Vec<_> = g
        .activities()
        .iter()
        .filter(|a| a.kind == ActivityKind::End)
        .collect();
    if begins.len() != 1 {
        return Err(ProcessError::Structure(format!(
            "expected exactly one Begin activity, found {}",
            begins.len()
        )));
    }
    if ends.len() != 1 {
        return Err(ProcessError::Structure(format!(
            "expected exactly one End activity, found {}",
            ends.len()
        )));
    }
    let begin_id = begins[0].id.clone();
    let end_id = ends[0].id.clone();

    for a in g.activities() {
        let preds = g.predecessors(&a.id).len();
        let succs = g.successors(&a.id).len();
        let ok = match a.kind {
            ActivityKind::Begin => preds == 0 && succs == 1,
            ActivityKind::End => preds >= 1 && succs == 0,
            ActivityKind::EndUser => preds == 1 && succs == 1,
            ActivityKind::Fork | ActivityKind::Choice => preds == 1 && succs >= 2,
            ActivityKind::Join | ActivityKind::Merge => preds >= 2 && succs == 1,
        };
        if !ok {
            return Err(ProcessError::Structure(format!(
                "activity `{}` ({:?}) has {preds} predecessors and {succs} successors",
                a.id, a.kind
            )));
        }
    }

    // Condition placement.
    for t in g.transitions() {
        let source_kind = g.activity(&t.source).expect("endpoint checked").kind;
        if t.condition.is_some() && source_kind != ActivityKind::Choice {
            return Err(ProcessError::Structure(format!(
                "transition `{}` carries a condition but its source `{}` is not a Choice",
                t.id, t.source
            )));
        }
    }
    for a in g.activities() {
        if a.kind == ActivityKind::Choice {
            let defaults = g
                .outgoing(&a.id)
                .iter()
                .filter(|t| t.condition.is_none())
                .count();
            if defaults > 1 {
                return Err(ProcessError::Structure(format!(
                    "Choice `{}` has {defaults} default (unconditioned) branches",
                    a.id
                )));
            }
        }
    }

    // Reachability.
    let from_begin = g.reachable_from(&begin_id);
    for a in g.activities() {
        if a.id != begin_id && !from_begin.contains(&a.id) {
            return Err(ProcessError::Structure(format!(
                "activity `{}` is unreachable from Begin",
                a.id
            )));
        }
    }
    for a in g.activities() {
        if a.id != end_id && !g.reachable_from(&a.id).contains(&end_id) {
            return Err(ProcessError::Structure(format!(
                "End is unreachable from activity `{}`",
                a.id
            )));
        }
    }
    Ok(())
}

const KINDS: [ActivityKind; 7] = [
    ActivityKind::Begin,
    ActivityKind::End,
    ActivityKind::EndUser,
    ActivityKind::Fork,
    ActivityKind::Join,
    ActivityKind::Choice,
    ActivityKind::Merge,
];

const SERVICES: [&str; 4] = ["alpha", "beta", "gamma", "delta"];

/// A graph's activities and transitions, editable, rebuilt through the
/// builder API (so ids stay unique and endpoints known).
struct Parts {
    activities: Vec<ActivityDecl>,
    transitions: Vec<Transition>,
}

impl Parts {
    fn of(g: &ProcessGraph) -> Self {
        Parts {
            activities: g.activities().to_vec(),
            transitions: g.transitions().to_vec(),
        }
    }

    fn build(&self) -> ProcessGraph {
        let mut g = ProcessGraph::new("case");
        for a in &self.activities {
            g.add_activity(a.clone()).expect("unique activity id");
        }
        for t in &self.transitions {
            g.add_transition_with_id(
                t.id.clone(),
                t.source.clone(),
                t.dest.clone(),
                t.condition.clone(),
            )
            .expect("known endpoints, unique id");
        }
        g
    }

    fn random_id(&self, rng: &mut ChaCha8Rng) -> String {
        self.activities.choose(rng).expect("non-empty").id.clone()
    }

    /// Apply one edit: drop, add or redirect a transition, flip an
    /// activity's kind, or add (or remove) a transition's condition.
    fn mutate(&mut self, rng: &mut ChaCha8Rng) {
        let m = self.transitions.len();
        match rng.gen_range(0..5u8) {
            0 if m > 0 => {
                self.transitions.remove(rng.gen_range(0..m));
            }
            2 if m > 0 => {
                let id = self.random_id(rng);
                let t = &mut self.transitions[rng.gen_range(0..m)];
                if rng.gen_bool(0.5) {
                    t.source = id;
                } else {
                    t.dest = id;
                }
            }
            3 => {
                let a = rng.gen_range(0..self.activities.len());
                self.activities[a].kind = *KINDS.choose(rng).expect("non-empty");
            }
            4 if m > 0 => {
                let t = &mut self.transitions[rng.gen_range(0..m)];
                t.condition = match t.condition {
                    Some(_) => None,
                    None => Some(Condition::True),
                };
            }
            _ => {
                let source = self.random_id(rng);
                let dest = self.random_id(rng);
                let condition = rng.gen_bool(0.3).then_some(Condition::True);
                let at = rng.gen_range(0..=m);
                self.transitions.insert(
                    at,
                    Transition {
                        id: "TR-added".to_owned(),
                        source,
                        dest,
                        condition,
                    },
                );
            }
        }
    }
}

/// A plan lowered from a random tree of 1–24 nodes.  Trees that do
/// not lower (a one-branch Concurrent block) are drawn again.
fn lowered_plan(rng: &mut ChaCha8Rng) -> ProcessGraph {
    let services: Vec<String> = SERVICES.iter().map(|s| s.to_string()).collect();
    loop {
        let size = rng.gen_range(1..=24);
        if let Ok(g) = tree_to_graph("plan", &random_tree(rng, size, &services)) {
            return g;
        }
    }
}

/// A raw random graph of 2–12 activities.  Three in four are wired as
/// a Begin-to-End spine with forward fan-out and the odd back edge,
/// sometimes plus an orphan cycle or a loop with no way out, kinds then
/// chosen to fit each activity's degrees (and occasionally not), so
/// most of them are valid.  The rest have uniformly random kinds and
/// edges.
fn raw_graph(rng: &mut ChaCha8Rng) -> ProcessGraph {
    let n = rng.gen_range(2..=12usize);
    let mut edges: Vec<(usize, usize)> = Vec::new();
    let mut kinds: Vec<ActivityKind>;
    if rng.gen_bool(0.75) {
        // Activity 0 is Begin with the single successor 1; n - 1 is End.
        edges.push((0, 1));
        for v in 2..n {
            edges.push((rng.gen_range(1..v), v));
        }
        for v in 1..n - 1 {
            if !edges.iter().any(|&(s, _)| s == v) || rng.gen_bool(0.2) {
                edges.push((v, rng.gen_range(v + 1..n)));
            }
        }
        if n > 2 && rng.gen_bool(0.2) {
            edges.push((rng.gen_range(1..n - 1), rng.gen_range(1..n - 1)));
        }
        let mut count = n;
        if rng.gen_bool(0.1) {
            // An orphan cycle: no way in from Begin.
            edges.extend([(count, count + 1), (count + 1, count)]);
            count += 2;
        }
        if n > 2 && rng.gen_bool(0.1) {
            // A trap: a spine activity also feeds a loop with no exit.
            let from = rng.gen_range(1..n - 1);
            edges.extend([(from, count), (count + 1, count), (count, count + 1)]);
            count += 2;
        }
        let degree = |v: usize| {
            let preds = edges.iter().filter(|&&(_, d)| d == v).count();
            let succs = edges.iter().filter(|&&(s, _)| s == v).count();
            (preds, succs)
        };
        kinds = (0..count)
            .map(|v| match degree(v) {
                _ if v == 0 => ActivityKind::Begin,
                _ if v == n - 1 => ActivityKind::End,
                (1, 1) => ActivityKind::EndUser,
                (1, s) if s >= 2 => *[ActivityKind::Fork, ActivityKind::Choice]
                    .choose(rng)
                    .unwrap(),
                (p, 1) if p >= 2 => *[ActivityKind::Join, ActivityKind::Merge]
                    .choose(rng)
                    .unwrap(),
                _ => *KINDS.choose(rng).unwrap(),
            })
            .collect();
        if rng.gen_bool(0.05) {
            kinds[rng.gen_range(0..count)] = *KINDS.choose(rng).unwrap();
        }
    } else {
        kinds = (0..n).map(|_| *KINDS.choose(rng).unwrap()).collect();
        for _ in 0..rng.gen_range(0..=2 * n) {
            edges.push((rng.gen_range(0..n), rng.gen_range(0..n)));
        }
    }
    // Conditions on Choice exits (one default at most, usually), and
    // rarely anywhere.
    let mut defaults: BTreeMap<usize, usize> = BTreeMap::new();
    let conditions: Vec<Option<Condition>> = edges
        .iter()
        .map(|&(s, _)| {
            let guarded = if kinds[s] == ActivityKind::Choice {
                let d = defaults.entry(s).or_insert(0);
                *d += 1;
                *d > 1 || rng.gen_bool(0.3)
            } else {
                rng.gen_bool(0.03)
            };
            guarded.then(|| Condition::Exists(format!("D{s}")))
        })
        .collect();
    // Insertion order decides which violation is reported first.
    let mut order: Vec<usize> = (0..kinds.len()).collect();
    order.shuffle(rng);
    let mut g = ProcessGraph::new("raw");
    for &v in &order {
        let id = format!("N{v}");
        let decl = match kinds[v] {
            ActivityKind::EndUser => {
                ActivityDecl::end_user_with_service(id, *SERVICES.choose(rng).unwrap())
            }
            kind => ActivityDecl::flow(id, kind),
        };
        g.add_activity(decl).unwrap();
    }
    let mut order: Vec<usize> = (0..edges.len()).collect();
    order.shuffle(rng);
    for e in order {
        let (s, d) = edges[e];
        g.add_transition(format!("N{s}"), format!("N{d}"), conditions[e].clone())
            .unwrap();
    }
    g
}

/// Tallies of the outcomes a differential run saw, by rule.
#[derive(Default, Debug)]
struct Outcomes(BTreeMap<&'static str, usize>);

impl Outcomes {
    fn check(&mut self, g: &ProcessGraph) {
        let expected = oracle_validate(g);
        let actual = g.validate();
        assert_eq!(
            actual, expected,
            "validate diverged from the oracle on {g:?}"
        );
        let rule = match &expected {
            Ok(()) => "valid",
            Err(e) => {
                let msg = e.to_string();
                [
                    "Begin activity",
                    "End activity",
                    "predecessors and",
                    "carries a condition",
                    "default (unconditioned)",
                    "unreachable from Begin",
                    "End is unreachable",
                ]
                .into_iter()
                .find(|rule| msg.contains(rule))
                .unwrap_or("other")
            }
        };
        *self.0.entry(rule).or_insert(0) += 1;
    }

    fn count(&self, rule: &str) -> usize {
        self.0.get(rule).copied().unwrap_or(0)
    }

    fn total(&self) -> usize {
        self.0.values().sum()
    }
}

#[test]
fn lowered_plans_validate_exactly_as_the_oracle() {
    let mut rng = ChaCha8Rng::seed_from_u64(0x5eed_0001);
    let mut seen = Outcomes::default();
    for _ in 0..3_000 {
        seen.check(&lowered_plan(&mut rng));
    }
    assert_eq!(
        seen.count("valid"),
        3_000,
        "lowered plans are valid: {seen:?}"
    );
}

#[test]
fn single_edit_mutants_validate_exactly_as_the_oracle() {
    let mut rng = ChaCha8Rng::seed_from_u64(0x5eed_0002);
    let mut seen = Outcomes::default();
    for _ in 0..2_500 {
        let plan = lowered_plan(&mut rng);
        for _ in 0..3 {
            let mut parts = Parts::of(&plan);
            parts.mutate(&mut rng);
            seen.check(&parts.build());
        }
    }
    assert_eq!(seen.total(), 7_500);
    // Every rule, in every position of the check order, is reached.
    for rule in [
        "valid",
        "Begin activity",
        "End activity",
        "predecessors and",
        "carries a condition",
        "default (unconditioned)",
        "unreachable from Begin",
        "End is unreachable",
    ] {
        assert!(seen.count(rule) > 0, "no mutant hit `{rule}`: {seen:?}");
    }
}

#[test]
fn raw_random_graphs_validate_exactly_as_the_oracle() {
    let mut rng = ChaCha8Rng::seed_from_u64(0x5eed_0003);
    let mut seen = Outcomes::default();
    for _ in 0..6_000 {
        seen.check(&raw_graph(&mut rng));
    }
    // The generator's bias toward valid graphs holds, and the rest
    // spread over the rules.
    assert!(seen.count("valid") >= 1_000, "{seen:?}");
    assert!(seen.count("unreachable from Begin") > 0, "{seen:?}");
    assert!(seen.count("End is unreachable") > 0, "{seen:?}");
    assert_eq!(seen.count("other"), 0, "{seen:?}");
}
