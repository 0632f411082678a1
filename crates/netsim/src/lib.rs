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
//! One scheduler orders time: the discrete-event queue
//! ([`event::EventQueue`]) that every multi-party run (collaboration skew
//! across many sites, steers crossing their links) is driven by. It holds
//! only the events in flight; a scripted run walks its script beside it
//! and merges the two by [`event::EventQueue::peek_at`], script first on a
//! tie. A party that only answers requests keeps a [`time::VClock`]
//! instead, merging each arrival into its own time (COVISE's sites do).
//!
//! Link behaviour (latency, bandwidth, deterministic jitter, loss) lives in
//! [`link::Link`]; scriptable mid-run faults (partition/heal, injected
//! loss/jitter) in [`fault::FaultyLink`]; named-site topologies with RTT
//! matrices in [`model::NetModel`].

pub mod event;
pub mod fault;
pub mod link;
pub mod model;
pub mod time;

pub use event::{Event, EventQueue};
pub use fault::{FaultyLink, LinkStats};
pub use link::{Link, LinkBuilder};
pub use model::{NetModel, SiteId};
pub use time::{SimTime, VClock};
