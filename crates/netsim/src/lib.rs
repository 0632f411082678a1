//! # netsim — deterministic virtual-time network substrate
//!
//! The SC2003 collaborative-steering paper runs its demonstrations over real
//! wide-area networks (UK SuperJanet, the German G-WiN, transatlantic links
//! to the SC'03 show floor in Phoenix). This crate substitutes a
//! *deterministic virtual-time model* of those networks so that every
//! latency/bandwidth experiment in the paper (the feedback-loop budgets of
//! §4.2–4.4, the traffic comparisons of §2.4/§4.6) can be reproduced exactly
//! and quickly on one machine.
//!
//! Two complementary styles are provided:
//!
//! * **Clock-merge channels** ([`channel::SimChannel`]) for request/response
//!   chains: each actor owns a [`time::VClock`]; a received message advances
//!   the receiver's clock to `max(local, arrival)`. This is the classic
//!   virtual-time co-simulation rule and is sufficient for the round-trip
//!   experiments.
//! * **A discrete-event scheduler** ([`event::EventQueue`]) for multi-party
//!   scenarios (collaboration skew across many sites).
//!
//! Link behaviour (latency, bandwidth, deterministic jitter, loss) lives in
//! [`link::Link`]; scriptable mid-run faults (partition/heal, injected
//! loss/jitter) in [`fault::FaultyLink`]; named-site topologies with RTT
//! matrices in [`model::NetModel`].

pub mod channel;
pub mod event;
pub mod fault;
pub mod link;
pub mod model;
pub mod time;

pub use channel::{SimChannel, SimEndpoint};
pub use event::{Event, EventQueue};
pub use fault::{FaultyLink, LinkStats};
pub use link::{Link, LinkBuilder};
pub use model::{NetModel, SiteId};
pub use time::{SimTime, VClock};
