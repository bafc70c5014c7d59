//! The down-going and up-going event types.
//!
//! Certain events travel down the stack (sends, timers, flow-control
//! grants) and others travel up (deliveries, views, blocks), per §2 of the
//! paper. Message-bearing events own their [`Msg`]; control events carry
//! only scalars.

use crate::msg::Msg;
use crate::view::ViewState;
use ensemble_util::{Rank, Seqno, Time};

/// Events travelling *down* the stack (towards the network).
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum DnEvent {
    /// Multicast a message to the whole group.
    Cast(Msg),
    /// Send a message point-to-point to `dst`.
    Send { dst: Rank, msg: Msg },
    /// Request a timer callback at `deadline` (consumed by the engine).
    Timer { deadline: Time },
    /// Membership asks the data layers to cease new transmissions.
    Block,
    /// The application acknowledges a `Block` request.
    BlockOk,
    /// Declare `ranks` as suspected-failed (travels to membership).
    Suspect { ranks: Vec<Rank> },
    /// Admit `members` into the group (travels to membership): `gmp`
    /// flushes the current view and announces a grown view whose member
    /// list is the sorted union. Used by partition healing, where the
    /// members of a remote component rejoin the primary partition.
    Merge {
        members: Vec<ensemble_util::Endpoint>,
    },
    /// A stability vector travelling down (consumed by `mnak` to prune
    /// its retransmission buffer; absorbed by `bottom`).
    Stable(Vec<Seqno>),
    /// The application leaves the group.
    Leave,
    /// The view is over and its stack is about to be dropped: casts
    /// flow control still holds go out now, credit or not (consumed by
    /// `mflow`; absorbed by `bottom`).
    Drain,
}

/// Events travelling *up* the stack (towards the application).
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum UpEvent {
    /// Delivery of a multicast from `origin`.
    Cast { origin: Rank, msg: Msg },
    /// Delivery of a point-to-point message from `origin`.
    Send { origin: Rank, msg: Msg },
    /// A new view is ready to be installed (the runtime rebuilds stacks).
    View(ViewState),
    /// Membership asks the application to stop sending.
    Block,
    /// Failure detection reports `ranks` as suspected.
    Suspect(Vec<Rank>),
    /// The flush protocol completed (sync → gmp).
    FlushDone,
    /// A stability vector (per-origin all-delivered floor).
    Stable(Vec<Seqno>),
    /// The stack is being torn down.
    Exit,
    /// A gap was detected and could not be repaired in time.
    LostMessage { origin: Rank, seqno: Seqno },
}

impl DnEvent {
    /// The message carried by this event, if any.
    pub fn msg(&self) -> Option<&Msg> {
        match self {
            DnEvent::Cast(m) => Some(m),
            DnEvent::Send { msg, .. } => Some(msg),
            _ => None,
        }
    }

    /// Mutable access to the carried message, if any.
    pub fn msg_mut(&mut self) -> Option<&mut Msg> {
        match self {
            DnEvent::Cast(m) => Some(m),
            DnEvent::Send { msg, .. } => Some(msg),
            _ => None,
        }
    }

    /// Whether the event carries a message.
    pub fn is_message(&self) -> bool {
        self.msg().is_some()
    }
}

impl UpEvent {
    /// The message carried by this event, if any.
    pub fn msg(&self) -> Option<&Msg> {
        match self {
            UpEvent::Cast { msg, .. } => Some(msg),
            UpEvent::Send { msg, .. } => Some(msg),
            _ => None,
        }
    }

    /// Mutable access to the carried message, if any.
    pub fn msg_mut(&mut self) -> Option<&mut Msg> {
        match self {
            UpEvent::Cast { msg, .. } => Some(msg),
            UpEvent::Send { msg, .. } => Some(msg),
            _ => None,
        }
    }

    /// The origin rank, for deliveries.
    pub fn origin(&self) -> Option<Rank> {
        match self {
            UpEvent::Cast { origin, .. } | UpEvent::Send { origin, .. } => Some(*origin),
            _ => None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::payload::Payload;

    #[test]
    fn dn_event_message_access() {
        let mut e = DnEvent::Cast(Msg::data(Payload::from_slice(b"a")));
        assert!(e.is_message());
        assert_eq!(e.msg().unwrap().payload().len(), 1);
        e.msg_mut().unwrap().set_payload(Payload::from_slice(b"bb"));
        assert_eq!(e.msg().unwrap().payload().len(), 2);
        assert!(!DnEvent::Block.is_message());
        assert!(DnEvent::Timer { deadline: Time(5) }.msg().is_none());
    }

    #[test]
    fn up_event_origin() {
        let e = UpEvent::Cast {
            origin: Rank(3),
            msg: Msg::control(),
        };
        assert_eq!(e.origin(), Some(Rank(3)));
        assert_eq!(UpEvent::Block.origin(), None);
    }

    #[test]
    fn up_event_send_msg_mut() {
        let mut e = UpEvent::Send {
            origin: Rank(1),
            msg: Msg::data(Payload::from_slice(b"zz")),
        };
        assert_eq!(e.msg().unwrap().payload().len(), 2);
        e.msg_mut().unwrap().set_payload(Payload::empty());
        assert!(e.msg().unwrap().payload().is_empty());
    }
}
