//! Type-erased mobility protocols: run any [`MobilityProtocol`] behind a
//! `Box<dyn DynProtocol>`.
//!
//! The generic substrate monomorphizes a whole deployment per protocol
//! (`Deployment<Mhh>`, `Deployment<SubUnsub>`, …), which is the fast path —
//! but it freezes the protocol axis at compile time: code that wants to pick
//! a protocol by *name* (a registry, a CLI flag, a data-driven experiment
//! matrix) cannot name the deployment type. This module adds the dyn path:
//!
//! * [`BoxedMsg`] — a protocol message with its concrete type erased; keeps
//!   the [`ProtocolMessage`] behaviour (kind, traffic class, clone, debug)
//!   and can be downcast back at the receiving protocol.
//! * [`DynProtocol`] — the object-safe mirror of [`MobilityProtocol`], all
//!   methods speaking [`BoxedMsg`].
//! * [`ErasedProtocol`] — wraps any concrete protocol as a [`DynProtocol`],
//!   boxing outgoing messages (via [`BrokerCtx::erased`]) and downcasting
//!   incoming ones.
//! * `impl MobilityProtocol for Box<dyn DynProtocol>` — so the *existing*
//!   generic machinery (`Broker`, `Deployment`, `Engine`) runs erased
//!   protocols unchanged: `Deployment<Box<dyn DynProtocol>>`.
//!
//! Because erasure only re-wraps payloads at the send boundary — same
//! messages, same sends, in the same order, with the same `kind()` and
//! `traffic_class()` — a dyn-dispatched run is behaviourally identical to
//! the generic run of the same protocol (the harness asserts byte-identical
//! metrics).

use std::any::Any;
use std::fmt;

use mhh_simnet::TrafficClass;

use crate::address::{BrokerId, ClientId, Peer};
use crate::broker::{BrokerCore, BrokerCtx, MobilityProtocol};
use crate::event::Event;
use crate::filter_table::FilterRef;
use crate::messages::{ConnectInfo, ProtocolMessage};

/// Object-safe view of one protocol message: everything [`ProtocolMessage`]
/// offers, plus cloning and downcasting through the box.
trait ErasedMessage: fmt::Debug + Send {
    fn kind(&self) -> &'static str;
    fn traffic_class(&self) -> TrafficClass;
    fn wire_bytes(&self) -> u32;
    fn clone_box(&self) -> Box<dyn ErasedMessage>;
    fn as_any(&self) -> &dyn Any;
    fn into_any(self: Box<Self>) -> Box<dyn Any>;
}

impl<M: ProtocolMessage> ErasedMessage for M {
    fn kind(&self) -> &'static str {
        ProtocolMessage::kind(self)
    }
    fn traffic_class(&self) -> TrafficClass {
        ProtocolMessage::traffic_class(self)
    }
    fn wire_bytes(&self) -> u32 {
        ProtocolMessage::wire_bytes(self)
    }
    fn clone_box(&self) -> Box<dyn ErasedMessage> {
        Box::new(self.clone())
    }
    fn as_any(&self) -> &dyn Any {
        self
    }
    fn into_any(self: Box<Self>) -> Box<dyn Any> {
        self
    }
}

/// A protocol message with its concrete type erased.
///
/// [`BoxedMsg`] is itself a [`ProtocolMessage`], so the whole generic
/// message set ([`crate::messages::NetMsg`]`<BoxedMsg>`) and everything
/// built on it work unchanged; `kind()` and `traffic_class()` delegate to
/// the wrapped message, so traffic accounting is identical to the generic
/// path.
pub struct BoxedMsg(Box<dyn ErasedMessage>);

impl BoxedMsg {
    /// Erase a concrete protocol message.
    pub fn new<M: ProtocolMessage>(msg: M) -> Self {
        BoxedMsg(Box::new(msg))
    }

    /// Recover the concrete message, or give the box back when the type
    /// does not match (a protocol received a foreign message — a wiring
    /// bug, since brokers of one deployment all run the same protocol).
    pub fn downcast<M: ProtocolMessage>(self) -> Result<M, BoxedMsg> {
        if self.0.as_any().is::<M>() {
            Ok(*self
                .0
                .into_any()
                .downcast::<M>()
                .expect("type checked just above"))
        } else {
            Err(self)
        }
    }
}

impl Clone for BoxedMsg {
    fn clone(&self) -> Self {
        BoxedMsg(self.0.clone_box())
    }
}

impl fmt::Debug for BoxedMsg {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        // Transparent: print exactly like the wrapped message so traces of
        // erased and generic runs read the same.
        self.0.fmt(f)
    }
}

impl ProtocolMessage for BoxedMsg {
    fn kind(&self) -> &'static str {
        self.0.kind()
    }
    fn traffic_class(&self) -> TrafficClass {
        self.0.traffic_class()
    }
    fn wire_bytes(&self) -> u32 {
        self.0.wire_bytes()
    }
}

/// The object-safe mirror of [`MobilityProtocol`]: same hooks, with the
/// protocol's message type erased to [`BoxedMsg`]. Implement it directly
/// for a natively type-erased protocol, or get it for free for any concrete
/// protocol via [`ErasedProtocol`] / [`erase`].
pub trait DynProtocol: Send {
    /// Human-readable protocol name (used in reports).
    fn name(&self) -> &'static str;

    /// A client reconnected at this broker (non-initial attachments only).
    fn on_client_connect(
        &mut self,
        core: &mut BrokerCore,
        info: ConnectInfo,
        ctx: &mut BrokerCtx<'_, BoxedMsg>,
    );

    /// A client disconnected from this broker.
    fn on_client_disconnect(
        &mut self,
        core: &mut BrokerCore,
        client: ClientId,
        filter: FilterRef,
        proclaimed_dest: Option<BrokerId>,
        ctx: &mut BrokerCtx<'_, BoxedMsg>,
    );

    /// A protocol-specific message arrived from `from`.
    fn on_protocol_msg(
        &mut self,
        core: &mut BrokerCore,
        from: BrokerId,
        msg: BoxedMsg,
        ctx: &mut BrokerCtx<'_, BoxedMsg>,
    );

    /// An event matched a client entry of this broker's filter table.
    fn on_client_event(
        &mut self,
        core: &mut BrokerCore,
        client: ClientId,
        event: &Event,
        from: Peer,
        ctx: &mut BrokerCtx<'_, BoxedMsg>,
    );

    /// Events currently buffered for disconnected or mid-handoff clients.
    fn buffered_events(&self) -> Vec<(ClientId, Event)>;

    /// Total modeled wire bytes of the buffered events (see
    /// [`MobilityProtocol::buffered_bytes`]).
    fn buffered_bytes(&self) -> u64;

    /// This broker just restarted from a crash (see
    /// [`MobilityProtocol::on_restart`]).
    fn on_restart(&mut self, core: &mut BrokerCore, ctx: &mut BrokerCtx<'_, BoxedMsg>);
}

/// Adapter wrapping a concrete [`MobilityProtocol`] as a [`DynProtocol`]:
/// incoming [`BoxedMsg`]s are downcast to the protocol's native message
/// type, and the context handed down re-boxes outgoing messages.
pub struct ErasedProtocol<P: MobilityProtocol>(pub P);

impl<P: MobilityProtocol> DynProtocol for ErasedProtocol<P> {
    fn name(&self) -> &'static str {
        self.0.name()
    }

    fn on_client_connect(
        &mut self,
        core: &mut BrokerCore,
        info: ConnectInfo,
        ctx: &mut BrokerCtx<'_, BoxedMsg>,
    ) {
        self.0
            .on_client_connect(core, info, &mut ctx.erased::<P::Msg>());
    }

    fn on_client_disconnect(
        &mut self,
        core: &mut BrokerCore,
        client: ClientId,
        filter: FilterRef,
        proclaimed_dest: Option<BrokerId>,
        ctx: &mut BrokerCtx<'_, BoxedMsg>,
    ) {
        self.0.on_client_disconnect(
            core,
            client,
            filter,
            proclaimed_dest,
            &mut ctx.erased::<P::Msg>(),
        );
    }

    fn on_protocol_msg(
        &mut self,
        core: &mut BrokerCore,
        from: BrokerId,
        msg: BoxedMsg,
        ctx: &mut BrokerCtx<'_, BoxedMsg>,
    ) {
        match msg.downcast::<P::Msg>() {
            Ok(msg) => self
                .0
                .on_protocol_msg(core, from, msg, &mut ctx.erased::<P::Msg>()),
            Err(other) => panic!(
                "protocol {:?} received a foreign message {:?} — all brokers \
                 of one deployment must run the same protocol",
                self.0.name(),
                other
            ),
        }
    }

    fn on_client_event(
        &mut self,
        core: &mut BrokerCore,
        client: ClientId,
        event: &Event,
        from: Peer,
        ctx: &mut BrokerCtx<'_, BoxedMsg>,
    ) {
        self.0
            .on_client_event(core, client, event, from, &mut ctx.erased::<P::Msg>());
    }

    fn buffered_events(&self) -> Vec<(ClientId, Event)> {
        self.0.buffered_events()
    }

    fn buffered_bytes(&self) -> u64 {
        self.0.buffered_bytes()
    }

    fn on_restart(&mut self, core: &mut BrokerCore, ctx: &mut BrokerCtx<'_, BoxedMsg>) {
        self.0.on_restart(core, &mut ctx.erased::<P::Msg>());
    }
}

/// Erase a concrete protocol into a boxed [`DynProtocol`].
pub fn erase<P: MobilityProtocol + 'static>(protocol: P) -> Box<dyn DynProtocol> {
    Box::new(ErasedProtocol(protocol))
}

/// The boxed dyn protocol *is* a [`MobilityProtocol`] (over [`BoxedMsg`]),
/// so `Deployment<Box<dyn DynProtocol>>` reuses the entire generic broker /
/// engine machinery — one deployment type runs every registered protocol.
impl MobilityProtocol for Box<dyn DynProtocol> {
    type Msg = BoxedMsg;

    fn name(&self) -> &'static str {
        self.as_ref().name()
    }

    fn on_client_connect(
        &mut self,
        core: &mut BrokerCore,
        info: ConnectInfo,
        ctx: &mut BrokerCtx<'_, Self::Msg>,
    ) {
        self.as_mut().on_client_connect(core, info, ctx);
    }

    fn on_client_disconnect(
        &mut self,
        core: &mut BrokerCore,
        client: ClientId,
        filter: FilterRef,
        proclaimed_dest: Option<BrokerId>,
        ctx: &mut BrokerCtx<'_, Self::Msg>,
    ) {
        self.as_mut()
            .on_client_disconnect(core, client, filter, proclaimed_dest, ctx);
    }

    fn on_protocol_msg(
        &mut self,
        core: &mut BrokerCore,
        from: BrokerId,
        msg: Self::Msg,
        ctx: &mut BrokerCtx<'_, Self::Msg>,
    ) {
        self.as_mut().on_protocol_msg(core, from, msg, ctx);
    }

    fn on_client_event(
        &mut self,
        core: &mut BrokerCore,
        client: ClientId,
        event: &Event,
        from: Peer,
        ctx: &mut BrokerCtx<'_, Self::Msg>,
    ) {
        self.as_mut()
            .on_client_event(core, client, event, from, ctx);
    }

    fn buffered_events(&self) -> Vec<(ClientId, Event)> {
        self.as_ref().buffered_events()
    }

    fn buffered_bytes(&self) -> u64 {
        self.as_ref().buffered_bytes()
    }

    fn on_restart(&mut self, core: &mut BrokerCore, ctx: &mut BrokerCtx<'_, Self::Msg>) {
        self.as_mut().on_restart(core, ctx);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::broker::NoProtocol;
    use crate::deployment::{ClientSpec, Deployment, DeploymentConfig};
    use crate::event::EventBuilder;
    use crate::filter::{Filter, Op};
    use crate::messages::{ClientAction, NoProtocolMsg};
    use mhh_simnet::SimTime;

    #[derive(Debug, Clone, PartialEq)]
    struct Probe(u32);
    impl ProtocolMessage for Probe {
        fn kind(&self) -> &'static str {
            "probe"
        }
        fn traffic_class(&self) -> TrafficClass {
            TrafficClass::MobilityControl
        }
    }

    #[test]
    fn boxed_msg_preserves_kind_class_debug_and_downcasts() {
        let boxed = BoxedMsg::new(Probe(7));
        assert_eq!(ProtocolMessage::kind(&boxed), "probe");
        assert_eq!(
            ProtocolMessage::traffic_class(&boxed),
            TrafficClass::MobilityControl
        );
        assert_eq!(format!("{boxed:?}"), format!("{:?}", Probe(7)));
        let copy = boxed.clone();
        assert_eq!(copy.downcast::<Probe>().unwrap(), Probe(7));
        // Wrong-type downcast hands the box back intact.
        let back = boxed.downcast::<NoProtocolMsg>().unwrap_err();
        assert_eq!(back.downcast::<Probe>().unwrap(), Probe(7));
    }

    fn specs(n: usize) -> Vec<ClientSpec> {
        (0..n)
            .map(|i| ClientSpec {
                filter: Filter::single("group", Op::Eq, 1i64),
                home: BrokerId((i % 9) as u32),
                mobile: false,
                initially_attached: true,
            })
            .collect()
    }

    /// A dyn-dispatched deployment delivers exactly like the generic one.
    #[test]
    fn erased_deployment_matches_generic_deployment() {
        let config = DeploymentConfig::default();
        let clients = specs(6);
        let event = EventBuilder::new()
            .attr("group", 1i64)
            .build(1, ClientId(2), 0);

        let mut generic: Deployment<NoProtocol> =
            Deployment::build(&config, &clients, |_| NoProtocol);
        generic.schedule_publish(SimTime::from_millis(1), ClientId(2), event.clone());
        generic.engine.run_to_completion();

        let mut erased_dep: Deployment<Box<dyn DynProtocol>> =
            Deployment::build(&config, &clients, |_| erase(NoProtocol));
        erased_dep.schedule_publish(SimTime::from_millis(1), ClientId(2), event);
        erased_dep.engine.run_to_completion();

        for (g, e) in generic.clients().zip(erased_dep.clients()) {
            assert_eq!(format!("{:?}", g.received), format!("{:?}", e.received));
        }
        assert_eq!(
            format!("{:?}", generic.engine.stats()),
            format!("{:?}", erased_dep.engine.stats())
        );
    }

    /// Reconnects route through the erased protocol hooks (NoProtocol
    /// re-subscribes at the new broker), exercising `BrokerCtx::erased`.
    #[test]
    fn erased_protocol_hooks_fire_on_mobility() {
        let config = DeploymentConfig::default();
        let clients = specs(2);
        let mut dep: Deployment<Box<dyn DynProtocol>> =
            Deployment::build(&config, &clients, |_| erase(NoProtocol));
        dep.schedule(
            SimTime::from_millis(5),
            ClientId(0),
            ClientAction::Disconnect {
                proclaimed_dest: None,
            },
        );
        dep.schedule(
            SimTime::from_millis(500),
            ClientId(0),
            ClientAction::Reconnect {
                broker: BrokerId(8),
            },
        );
        let late = EventBuilder::new()
            .attr("group", 1i64)
            .build(2, ClientId(1), 0);
        dep.schedule_publish(SimTime::from_millis(2_000), ClientId(1), late);
        dep.engine.run_to_completion();
        assert_eq!(dep.client(ClientId(0)).received.len(), 1);
        assert_eq!(dep.client(ClientId(0)).current_broker, Some(BrokerId(8)));
        assert_eq!(dep.broker(BrokerId(8)).proto.name(), "static");
    }
}
