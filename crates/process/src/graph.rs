//! The flattened activity/transition graph form of a process description.
//!
//! This is the form of Figure 10: a set of activities — end-user
//! activities plus the six flow-control activities Begin, End, Choice,
//! Fork, Join, Merge (§3.1) — connected by directed transitions (TR1 …
//! TR15 in the figure).  The coordination service enacts this form; the
//! planner's plan trees convert to and from it.

use crate::condition::Condition;
use crate::error::{ProcessError, Result};
use serde::{Deserialize, Serialize};
use std::collections::{BTreeMap, BTreeSet, HashMap, VecDeque};

/// The kind of an activity (the paper's six flow-control activities plus
/// end-user activities).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum ActivityKind {
    /// Every plan starts with exactly one Begin.
    Begin,
    /// Every plan concludes with exactly one End.
    End,
    /// An end-user activity backed by a computing service.
    EndUser,
    /// One predecessor, multiple successors, all triggered.
    Fork,
    /// Multiple predecessors, one successor; fires when *all* predecessors
    /// complete.
    Join,
    /// One predecessor, multiple successors, exactly one triggered
    /// (selected by the condition set on its outgoing transitions).
    Choice,
    /// Multiple predecessors, one successor; fires when *any* predecessor
    /// completes.
    Merge,
}

impl ActivityKind {
    /// The `Type` string used in the ontology instances of Fig. 13.
    pub fn ontology_type(&self) -> &'static str {
        match self {
            ActivityKind::Begin => "Begin",
            ActivityKind::End => "End",
            ActivityKind::EndUser => "End-user",
            ActivityKind::Fork => "Fork",
            ActivityKind::Join => "Join",
            ActivityKind::Choice => "Choice",
            ActivityKind::Merge => "Merge",
        }
    }

    /// Is this one of the six flow-control kinds?
    pub fn is_flow_control(&self) -> bool {
        !matches!(self, ActivityKind::EndUser)
    }
}

/// One activity of the graph.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ActivityDecl {
    /// Unique identifier within the graph (e.g. `P3DR1`).
    pub id: String,
    /// Activity kind.
    pub kind: ActivityKind,
    /// For end-user activities: the name of the computing service that
    /// executes it (e.g. `P3DR` for all of `P3DR1`…`P3DR4`).  `None` for
    /// flow-control activities.
    pub service: Option<String>,
}

impl ActivityDecl {
    /// An end-user activity whose service name equals its id.
    pub fn end_user(id: impl Into<String>) -> Self {
        let id = id.into();
        ActivityDecl {
            service: Some(id.clone()),
            id,
            kind: ActivityKind::EndUser,
        }
    }

    /// An end-user activity with an explicit service name.
    pub fn end_user_with_service(id: impl Into<String>, service: impl Into<String>) -> Self {
        ActivityDecl {
            id: id.into(),
            kind: ActivityKind::EndUser,
            service: Some(service.into()),
        }
    }

    /// A flow-control activity.
    pub fn flow(id: impl Into<String>, kind: ActivityKind) -> Self {
        ActivityDecl {
            id: id.into(),
            kind,
            service: None,
        }
    }
}

/// A directed transition between two activities.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Transition {
    /// Unique identifier (e.g. `TR12`).
    pub id: String,
    /// Source activity id.
    pub source: String,
    /// Destination activity id.
    pub dest: String,
    /// Guard on the transition.  Only meaningful on transitions leaving a
    /// Choice activity; `None` there means "default/else branch".
    pub condition: Option<Condition>,
}

/// A process description in activity/transition form.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ProcessGraph {
    /// Name of the process description (`PD-3DSD` in Fig. 13).
    pub name: String,
    activities: Vec<ActivityDecl>,
    index: BTreeMap<String, usize>,
    transitions: Vec<Transition>,
    next_transition: usize,
}

impl ProcessGraph {
    /// An empty graph.
    pub fn new(name: impl Into<String>) -> Self {
        ProcessGraph {
            name: name.into(),
            activities: Vec::new(),
            index: BTreeMap::new(),
            transitions: Vec::new(),
            next_transition: 1,
        }
    }

    /// Add an activity; ids must be unique.
    pub fn add_activity(&mut self, decl: ActivityDecl) -> Result<()> {
        if self.index.contains_key(&decl.id) {
            return Err(ProcessError::Structure(format!(
                "duplicate activity id `{}`",
                decl.id
            )));
        }
        self.index.insert(decl.id.clone(), self.activities.len());
        self.activities.push(decl);
        Ok(())
    }

    /// Add a transition with an auto-generated id (`TR1`, `TR2`, …).
    pub fn add_transition(
        &mut self,
        source: impl Into<String>,
        dest: impl Into<String>,
        condition: Option<Condition>,
    ) -> Result<&Transition> {
        let id = format!("TR{}", self.next_transition);
        self.add_transition_with_id(id, source, dest, condition)
    }

    /// Add a transition with an explicit id.
    pub fn add_transition_with_id(
        &mut self,
        id: impl Into<String>,
        source: impl Into<String>,
        dest: impl Into<String>,
        condition: Option<Condition>,
    ) -> Result<&Transition> {
        let id = id.into();
        let source = source.into();
        let dest = dest.into();
        if self.transitions.iter().any(|t| t.id == id) {
            return Err(ProcessError::Structure(format!(
                "duplicate transition id `{id}`"
            )));
        }
        for endpoint in [&source, &dest] {
            if !self.index.contains_key(endpoint) {
                return Err(ProcessError::Structure(format!(
                    "transition `{id}` references unknown activity `{endpoint}`"
                )));
            }
        }
        self.next_transition += 1;
        self.transitions.push(Transition {
            id,
            source,
            dest,
            condition,
        });
        Ok(self.transitions.last().expect("just pushed"))
    }

    /// Look up an activity by id.
    pub fn activity(&self, id: &str) -> Option<&ActivityDecl> {
        self.index.get(id).and_then(|&i| self.activities.get(i))
    }

    /// All activities, in insertion order.
    pub fn activities(&self) -> &[ActivityDecl] {
        &self.activities
    }

    /// All transitions, in insertion order.
    pub fn transitions(&self) -> &[Transition] {
        &self.transitions
    }

    /// The end-user activities, in insertion order.
    pub fn end_user_activities(&self) -> impl Iterator<Item = &ActivityDecl> {
        self.activities
            .iter()
            .filter(|a| a.kind == ActivityKind::EndUser)
    }

    /// Transitions leaving `id`, in insertion order (the order is the
    /// priority order of Choice conditions).
    pub fn outgoing(&self, id: &str) -> Vec<&Transition> {
        self.transitions.iter().filter(|t| t.source == id).collect()
    }

    /// Transitions entering `id`, in insertion order.
    pub fn incoming(&self, id: &str) -> Vec<&Transition> {
        self.transitions.iter().filter(|t| t.dest == id).collect()
    }

    /// Successor activity ids of `id`.
    pub fn successors(&self, id: &str) -> Vec<&str> {
        self.outgoing(id).iter().map(|t| t.dest.as_str()).collect()
    }

    /// Predecessor activity ids of `id`.
    pub fn predecessors(&self, id: &str) -> Vec<&str> {
        self.incoming(id)
            .iter()
            .map(|t| t.source.as_str())
            .collect()
    }

    /// The unique successor of a single-successor activity.
    pub fn sole_successor(&self, id: &str) -> Result<&str> {
        let succs = self.successors(id);
        match succs.as_slice() {
            [s] => Ok(s),
            _ => Err(ProcessError::Structure(format!(
                "activity `{id}` has {} successors, expected exactly 1",
                succs.len()
            ))),
        }
    }

    /// The Begin activity, if present.
    pub fn begin(&self) -> Option<&ActivityDecl> {
        self.activities
            .iter()
            .find(|a| a.kind == ActivityKind::Begin)
    }

    /// The End activity, if present.
    pub fn end(&self) -> Option<&ActivityDecl> {
        self.activities.iter().find(|a| a.kind == ActivityKind::End)
    }

    /// Ids reachable from `from` by following transitions (not including
    /// `from` itself unless it lies on a cycle through itself).
    pub fn reachable_from(&self, from: &str) -> BTreeSet<String> {
        let mut seen = BTreeSet::new();
        let mut queue: VecDeque<&str> = self.successors(from).into_iter().collect();
        while let Some(id) = queue.pop_front() {
            if seen.insert(id.to_owned()) {
                queue.extend(self.successors(id));
            }
        }
        seen
    }

    /// Structural validation per §3.1 of the paper:
    ///
    /// 1. exactly one Begin and one End; "these two activities cannot
    ///    occur anywhere else in a plan";
    /// 2. Begin has no predecessor and one successor; End has no successor;
    /// 3. end-user activities have exactly one predecessor and one
    ///    successor;
    /// 4. Fork: one predecessor, at least two successors;
    ///    Join: at least two predecessors, one successor;
    ///    Choice: one predecessor, at least two successors;
    ///    Merge: at least two predecessors, one successor;
    /// 5. every activity is reachable from Begin, and End is reachable
    ///    from every activity;
    /// 6. on each Choice, at most one outgoing transition may lack a
    ///    condition (the default branch), and only Choice transitions may
    ///    carry conditions.
    ///
    /// Degrees are checked first, then conditions, then reachability;
    /// the first violation is returned.  The cost is O(V + E): one pass
    /// resolves every transition to node numbers, then one forward
    /// search from Begin and one reverse search from End decide
    /// reachability.  Corrupt deserialized input — a transition source
    /// naming no activity, an index entry past the activity list — is a
    /// [`ProcessError::Structure`], never a panic.
    pub fn validate(&self) -> Result<()> {
        let begins: Vec<_> = self
            .activities
            .iter()
            .filter(|a| a.kind == ActivityKind::Begin)
            .collect();
        let ends: Vec<_> = self
            .activities
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
        let nodes = NodeGraph::new(self);
        let begin = nodes.node_of[begins[0].id.as_str()];
        let end = nodes.node_of[ends[0].id.as_str()];

        for (a, &v) in self.activities.iter().zip(&nodes.activity_node) {
            let preds = nodes.preds[v];
            let succs = nodes.succs[v];
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

        // Condition placement.  The source is looked up through the
        // index, as enactment looks it up.
        for t in &self.transitions {
            let source = match self.index.get(&t.source) {
                Some(&i) => self.activities.get(i).ok_or_else(|| {
                    ProcessError::Structure(format!(
                        "activity `{}` is indexed at position {i} but the graph has {} activities",
                        t.source,
                        self.activities.len()
                    ))
                })?,
                None => {
                    return Err(ProcessError::Structure(format!(
                        "transition `{}` references unknown activity `{}`",
                        t.id, t.source
                    )))
                }
            };
            if t.condition.is_some() && source.kind != ActivityKind::Choice {
                return Err(ProcessError::Structure(format!(
                    "transition `{}` carries a condition but its source `{}` is not a Choice",
                    t.id, t.source
                )));
            }
        }
        for (a, &v) in self.activities.iter().zip(&nodes.activity_node) {
            let defaults = nodes.defaults[v];
            if a.kind == ActivityKind::Choice && defaults > 1 {
                return Err(ProcessError::Structure(format!(
                    "Choice `{}` has {defaults} default (unconditioned) branches",
                    a.id
                )));
            }
        }

        // Reachability, by paths of at least one transition.
        let from_begin = nodes.forward.reached_from(begin);
        for (a, &v) in self.activities.iter().zip(&nodes.activity_node) {
            if v != begin && !from_begin[v] {
                return Err(ProcessError::Structure(format!(
                    "activity `{}` is unreachable from Begin",
                    a.id
                )));
            }
        }
        let to_end = nodes.reverse.reached_from(end);
        for (a, &v) in self.activities.iter().zip(&nodes.activity_node) {
            if v != end && !to_end[v] {
                return Err(ProcessError::Structure(format!(
                    "End is unreachable from activity `{}`",
                    a.id
                )));
            }
        }
        Ok(())
    }
}

/// A graph's transitions resolved to dense node numbers in one pass —
/// the working form of [`ProcessGraph::validate`].
///
/// A node is one distinct id: activity ids first (an id a corrupt graph
/// repeats shares its first activity's node), then any transition
/// endpoint that names no activity.  Counting and searching over node
/// numbers therefore sees exactly the graph that matching transition
/// endpoints against ids string by string sees.
struct NodeGraph<'a> {
    node_of: HashMap<&'a str, usize>,
    /// The node of each activity, by position.
    activity_node: Vec<usize>,
    /// Transitions entering each node.
    preds: Vec<usize>,
    /// Transitions leaving each node.
    succs: Vec<usize>,
    /// Unconditioned transitions leaving each node.
    defaults: Vec<usize>,
    /// Source → destination adjacency.
    forward: Adjacency,
    /// Destination → source adjacency.
    reverse: Adjacency,
}

impl<'a> NodeGraph<'a> {
    fn new(graph: &'a ProcessGraph) -> Self {
        let mut node_of: HashMap<&str, usize> = HashMap::with_capacity(graph.activities.len());
        let activity_node: Vec<usize> = graph
            .activities
            .iter()
            .enumerate()
            .map(|(i, a)| *node_of.entry(a.id.as_str()).or_insert(i))
            .collect();
        let mut count = graph.activities.len();
        let mut edges = Vec::with_capacity(graph.transitions.len());
        for t in &graph.transitions {
            let mut resolve = |id: &'a str| {
                *node_of.entry(id).or_insert_with(|| {
                    count += 1;
                    count - 1
                })
            };
            edges.push((resolve(&t.source), resolve(&t.dest)));
        }
        let mut preds = vec![0; count];
        let mut succs = vec![0; count];
        let mut defaults = vec![0; count];
        for (t, &(s, d)) in graph.transitions.iter().zip(&edges) {
            succs[s] += 1;
            preds[d] += 1;
            if t.condition.is_none() {
                defaults[s] += 1;
            }
        }
        let forward = Adjacency::new(&succs, edges.iter().copied());
        let reverse = Adjacency::new(&preds, edges.iter().map(|&(s, d)| (d, s)));
        NodeGraph {
            node_of,
            activity_node,
            preds,
            succs,
            defaults,
            forward,
            reverse,
        }
    }
}

/// Adjacency lists in compressed form: the neighbours of node `v` are
/// `targets[offsets[v]..offsets[v + 1]]`.
struct Adjacency {
    offsets: Vec<usize>,
    targets: Vec<usize>,
}

impl Adjacency {
    /// Lay out `edges`, given each node's out-degree among them.
    fn new(degree: &[usize], edges: impl Iterator<Item = (usize, usize)>) -> Self {
        // Each node's offset starts at the end of its range and counts
        // down as its edges are placed.
        let mut offsets = Vec::with_capacity(degree.len() + 1);
        let mut total = 0;
        for &d in degree {
            total += d;
            offsets.push(total);
        }
        offsets.push(total);
        let mut targets = vec![0; total];
        for (from, to) in edges {
            offsets[from] -= 1;
            targets[offsets[from]] = to;
        }
        Adjacency { offsets, targets }
    }

    /// Which nodes a path of at least one edge leads to from `start`
    /// (`start` itself only if it lies on a cycle).
    fn reached_from(&self, start: usize) -> Vec<bool> {
        let mut seen = vec![false; self.offsets.len() - 1];
        let mut stack = vec![start];
        while let Some(v) = stack.pop() {
            for &w in &self.targets[self.offsets[v]..self.offsets[v + 1]] {
                if !seen[w] {
                    seen[w] = true;
                    stack.push(w);
                }
            }
        }
        seen
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// BEGIN -> A -> END
    fn linear() -> ProcessGraph {
        let mut g = ProcessGraph::new("linear");
        g.add_activity(ActivityDecl::flow("BEGIN", ActivityKind::Begin))
            .unwrap();
        g.add_activity(ActivityDecl::end_user("A")).unwrap();
        g.add_activity(ActivityDecl::flow("END", ActivityKind::End))
            .unwrap();
        g.add_transition("BEGIN", "A", None).unwrap();
        g.add_transition("A", "END", None).unwrap();
        g
    }

    #[test]
    fn linear_graph_validates() {
        linear().validate().unwrap();
    }

    #[test]
    fn transition_ids_auto_increment() {
        let g = linear();
        let ids: Vec<&str> = g.transitions().iter().map(|t| t.id.as_str()).collect();
        assert_eq!(ids, vec!["TR1", "TR2"]);
    }

    #[test]
    fn duplicate_activity_rejected() {
        let mut g = linear();
        assert!(g.add_activity(ActivityDecl::end_user("A")).is_err());
    }

    #[test]
    fn transition_to_unknown_activity_rejected() {
        let mut g = linear();
        assert!(g.add_transition("A", "NOPE", None).is_err());
    }

    #[test]
    fn missing_begin_fails_validation() {
        let mut g = ProcessGraph::new("bad");
        g.add_activity(ActivityDecl::end_user("A")).unwrap();
        g.add_activity(ActivityDecl::flow("END", ActivityKind::End))
            .unwrap();
        g.add_transition("A", "END", None).unwrap();
        assert!(matches!(g.validate(), Err(ProcessError::Structure(_))));
    }

    #[test]
    fn fork_requires_two_successors() {
        let mut g = ProcessGraph::new("bad");
        g.add_activity(ActivityDecl::flow("BEGIN", ActivityKind::Begin))
            .unwrap();
        g.add_activity(ActivityDecl::flow("FORK", ActivityKind::Fork))
            .unwrap();
        g.add_activity(ActivityDecl::end_user("A")).unwrap();
        g.add_activity(ActivityDecl::flow("END", ActivityKind::End))
            .unwrap();
        g.add_transition("BEGIN", "FORK", None).unwrap();
        g.add_transition("FORK", "A", None).unwrap();
        g.add_transition("A", "END", None).unwrap();
        let err = g.validate().unwrap_err();
        assert!(err.to_string().contains("FORK"));
    }

    #[test]
    fn condition_outside_choice_rejected() {
        // A structurally sound chain whose only defect is a guard on a
        // transition leaving a non-Choice activity.
        let mut g = ProcessGraph::new("bad-guard");
        g.add_activity(ActivityDecl::flow("BEGIN", ActivityKind::Begin))
            .unwrap();
        g.add_activity(ActivityDecl::end_user("A")).unwrap();
        g.add_activity(ActivityDecl::flow("END", ActivityKind::End))
            .unwrap();
        g.add_transition("BEGIN", "A", Some(Condition::True))
            .unwrap();
        g.add_transition("A", "END", None).unwrap();
        let err = g.validate().unwrap_err();
        assert!(err.to_string().contains("not a Choice"));
    }

    #[test]
    fn unreachable_activity_detected() {
        // An isolated two-node cycle has valid local degree counts but is
        // unreachable from Begin.
        let mut g = linear();
        g.add_activity(ActivityDecl::end_user("ORPHAN")).unwrap();
        g.add_activity(ActivityDecl::end_user("ORPHAN2")).unwrap();
        g.add_transition("ORPHAN", "ORPHAN2", None).unwrap();
        g.add_transition("ORPHAN2", "ORPHAN", None).unwrap();
        let err = g.validate().unwrap_err();
        assert!(err.to_string().contains("unreachable"));
    }

    #[test]
    fn end_unreachable_from_a_cycle_detected() {
        // Every activity is reachable from Begin and has valid degrees,
        // but the MERGE/X loop has no way out to End.
        let mut g = ProcessGraph::new("trap");
        for (id, kind) in [
            ("BEGIN", ActivityKind::Begin),
            ("FORK", ActivityKind::Fork),
            ("MERGE", ActivityKind::Merge),
            ("END", ActivityKind::End),
        ] {
            g.add_activity(ActivityDecl::flow(id, kind)).unwrap();
        }
        g.add_activity(ActivityDecl::end_user("A")).unwrap();
        g.add_activity(ActivityDecl::end_user("X")).unwrap();
        g.add_transition("BEGIN", "FORK", None).unwrap();
        g.add_transition("FORK", "A", None).unwrap();
        g.add_transition("FORK", "MERGE", None).unwrap();
        g.add_transition("A", "END", None).unwrap();
        g.add_transition("MERGE", "X", None).unwrap();
        g.add_transition("X", "MERGE", None).unwrap();
        let err = g.validate().unwrap_err();
        assert_eq!(
            err.to_string(),
            "structural error: End is unreachable from activity `MERGE`"
        );
    }

    /// `linear()` serialized, with the first `from` in its JSON text
    /// replaced by `to` — how a corrupt checkpoint or snapshot payload
    /// delivers a graph that the builder API could never produce.
    fn corrupt_linear(from: &str, to: &str) -> ProcessGraph {
        let json = serde_json::to_string(&linear()).unwrap();
        assert!(json.contains(from), "{from} not in {json}");
        serde_json::from_str(&json.replacen(from, to, 1)).unwrap()
    }

    #[test]
    fn dangling_dest_fails_the_degree_check() {
        let g = corrupt_linear(
            r#""transitions":["#,
            r#""transitions":[{"condition":null,"dest":"NOPE","id":"TR9","source":"A"},"#,
        );
        assert_eq!(
            g.validate().unwrap_err().to_string(),
            "structural error: activity `A` (EndUser) has 1 predecessors and 2 successors"
        );
    }

    #[test]
    fn dangling_source_is_an_error_not_a_panic() {
        // END accepts any number of predecessors, so the unknown source
        // passes the degree checks and is caught by its lookup.
        let g = corrupt_linear(
            r#""transitions":["#,
            r#""transitions":[{"condition":null,"dest":"END","id":"TR9","source":"NOPE"},"#,
        );
        assert_eq!(
            g.validate().unwrap_err().to_string(),
            "structural error: transition `TR9` references unknown activity `NOPE`"
        );
    }

    #[test]
    fn index_past_the_activities_is_an_error_not_a_panic() {
        let g = corrupt_linear(r#""A":1"#, r#""A":7"#);
        assert!(g.activity("A").is_none());
        assert_eq!(
            g.validate().unwrap_err().to_string(),
            "structural error: activity `A` is indexed at position 7 but the graph has 3 activities"
        );
    }

    #[test]
    fn fork_join_diamond_validates() {
        let mut g = ProcessGraph::new("diamond");
        for (id, kind) in [
            ("BEGIN", ActivityKind::Begin),
            ("FORK", ActivityKind::Fork),
            ("JOIN", ActivityKind::Join),
            ("END", ActivityKind::End),
        ] {
            g.add_activity(ActivityDecl::flow(id, kind)).unwrap();
        }
        g.add_activity(ActivityDecl::end_user("A")).unwrap();
        g.add_activity(ActivityDecl::end_user("B")).unwrap();
        g.add_transition("BEGIN", "FORK", None).unwrap();
        g.add_transition("FORK", "A", None).unwrap();
        g.add_transition("FORK", "B", None).unwrap();
        g.add_transition("A", "JOIN", None).unwrap();
        g.add_transition("B", "JOIN", None).unwrap();
        g.add_transition("JOIN", "END", None).unwrap();
        g.validate().unwrap();
        assert_eq!(g.successors("FORK"), vec!["A", "B"]);
        assert_eq!(g.predecessors("JOIN"), vec!["A", "B"]);
        assert_eq!(g.sole_successor("JOIN").unwrap(), "END");
        assert!(g.sole_successor("FORK").is_err());
    }

    #[test]
    fn reachability() {
        let g = linear();
        let r = g.reachable_from("BEGIN");
        assert!(r.contains("A"));
        assert!(r.contains("END"));
        assert!(g.reachable_from("END").is_empty());
    }

    #[test]
    fn end_user_activities_and_service_names() {
        let mut g = ProcessGraph::new("svc");
        g.add_activity(ActivityDecl::end_user_with_service("P3DR1", "P3DR"))
            .unwrap();
        let a = g.activity("P3DR1").unwrap();
        assert_eq!(a.service.as_deref(), Some("P3DR"));
        assert_eq!(g.end_user_activities().count(), 1);
        assert!(ActivityKind::Fork.is_flow_control());
        assert!(!ActivityKind::EndUser.is_flow_control());
        assert_eq!(ActivityKind::EndUser.ontology_type(), "End-user");
    }
}
