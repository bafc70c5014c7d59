//! A formed `ClusterNode` together with the channel its events arrive on.

use ensemble_cluster::{ClusterConfig, ClusterError, ClusterEvent, ClusterNode, StateProvider};
use ensemble_runtime::Transport;
use ensemble_util::Endpoint;
use std::ops::Deref;
use std::sync::mpsc::{channel, Receiver};

pub struct Member {
    pub node: ClusterNode,
    pub events: Receiver<ClusterEvent>,
}

impl Member {
    /// `ClusterNode::form` with a fresh channel for the events.
    pub fn form(
        ep: Endpoint,
        seed: Endpoint,
        cfg: ClusterConfig,
        control: Box<dyn Transport>,
        data: Box<dyn Transport>,
        state: Option<Box<dyn StateProvider>>,
    ) -> Result<Member, ClusterError> {
        let (tx, events) = channel();
        let node = ClusterNode::form(ep, seed, cfg, control, data, state, tx)?;
        Ok(Member { node, events })
    }
}

impl Deref for Member {
    type Target = ClusterNode;
    fn deref(&self) -> &ClusterNode {
        &self.node
    }
}
