//! # mhh-pubsub — content-based publish/subscribe substrate
//!
//! This crate implements the system model of Section 3 of the MHH paper:
//! a content-based publish/subscribe system whose event brokers form an
//! acyclic overlay (a spanning tree of the physical broker network) and route
//! events by reverse path forwarding (RPF).
//!
//! The crate provides:
//!
//! * events and attribute values ([`event`], [`value`]),
//! * conjunctive content filters with matching and *covering* ([`filter`]),
//! * the per-broker filter table with the *accept-only-from* labels that the
//!   MHH subscription-migration relies on ([`filter_table`]),
//! * persistent / temporary event queues and the distributed-queue-list
//!   bookkeeping ([`queue`]),
//! * the on-wire message set, generic over a mobility protocol
//!   ([`messages`]),
//! * the broker node: protocol-agnostic core plus a
//!   [`broker::MobilityProtocol`] trait that `mhh-core`
//!   (MHH itself) and `mhh-baselines` (sub-unsub, home-broker) plug into
//!   ([`broker`]),
//! * the mobile client node ([`client`]),
//! * type-erased protocols ([`dynproto`]): any [`MobilityProtocol`] can run
//!   behind a `Box<dyn DynProtocol>` (`Deployment<Box<dyn DynProtocol>>`),
//!   which is what lets registries and data-driven experiments pick
//!   protocols by name at run time, and
//! * delivery auditing: exactly-once, loss, duplication and per-publisher
//!   ordering checks ([`delivery`]), and
//! * overlay repair under injected faults ([`repair`]): sticky-path
//!   re-routing around crashed brokers, partition tunneling, and broker
//!   checkpoint/restore with a protocol [`broker::MobilityProtocol::on_restart`]
//!   recovery hook.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod address;
pub mod broker;
pub mod client;
pub mod delivery;
pub mod deployment;
pub mod dynproto;
pub mod event;
pub mod filter;
pub mod filter_table;
pub mod messages;
pub mod queue;
pub mod repair;
pub mod value;
pub mod wire;

pub use address::{AddressBook, BrokerId, ClientId, Peer};
pub use broker::{Broker, BrokerCore, BrokerCtx, MobilityProtocol};
pub use client::{ClientNode, DeliveryRecord, DisconnectRecord, ReconnectRecord};
pub use delivery::{
    audit, classify, Classification, DeliveryAudit, SubscriberLog, SubscriberOutcome,
};
pub use deployment::{ClientSpec, Deployment, DeploymentConfig, SimNode};
pub use dynproto::{erase, BoxedMsg, DynProtocol, ErasedProtocol};
pub use event::{Event, EventId};
pub use filter::{Constraint, Filter, Op};
pub use filter_table::{FilterEntry, FilterRef, FilterTable};
pub use messages::{ClientAction, ConnectInfo, NetMsg, ProtocolMessage, RepairMsg};
pub use queue::{EventQueue, PqId, QueueKind};
pub use repair::{repair_drives, BrokerCheckpoint, RepairState};
pub use value::Value;
pub use wire::{CachedEvent, FanoutMode, FanoutStats};
