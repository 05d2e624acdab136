//! Nodes: hosts (traffic endpoints) and switches (store-and-forward).

/// Index of a node within a topology.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct NodeId(pub u32);

impl NodeId {
    /// The index as `usize` for table lookups.
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

/// Role of a node.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum NodeKind {
    /// A traffic endpoint; agents (transport stacks, workload drivers)
    /// attach here.
    Host,
    /// A store-and-forward switch; forwards per its routing table.
    Switch,
}

/// A node in the topology.
#[derive(Debug, Clone)]
pub struct Node {
    /// The node's id.
    pub id: NodeId,
    /// Host or switch.
    pub kind: NodeKind,
    /// Debug name (e.g. "h0", "tor-left").
    pub name: String,
    /// Routing table: `routes[dst.index()]` is the outgoing channel index
    /// toward `dst`, or `None` if unreachable. Filled in by the topology
    /// builder from BFS shortest paths.
    pub routes: Vec<Option<usize>>,
}

impl Node {
    /// Creates an isolated node (routes are filled by the builder).
    pub fn new(id: NodeId, kind: NodeKind, name: impl Into<String>) -> Self {
        Self {
            id,
            kind,
            name: name.into(),
            routes: Vec::new(),
        }
    }

    /// Whether this node terminates traffic.
    pub fn is_host(&self) -> bool {
        matches!(self.kind, NodeKind::Host)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn node_basics() {
        let n = Node::new(NodeId(3), NodeKind::Host, "h3");
        assert!(n.is_host());
        assert_eq!(n.id.index(), 3);
        assert_eq!(n.name, "h3");
        let s = Node::new(NodeId(4), NodeKind::Switch, "sw");
        assert!(!s.is_host());
    }
}
