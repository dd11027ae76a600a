//! # ffd2d-phy — LTE-A PHY/MAC substrate
//!
//! The paper transmits proximity signals (PSs) on LTE-A **RACH
//! preambles** and relies on two properties of that physical layer:
//!
//! 1. *A pair of RACH codecs*: "PS will use two different RACH codec...
//!    One codec use for keep-alive i.e. for synchronization purpose
//!    where as other codec for other event" (§III). Different codecs are
//!    orthogonal ("different RACH preambles can flow in network
//!    simultaneously without any interference" under OFDMA).
//! 2. *Intra-codec collisions*: two devices transmitting the same codec
//!    in the same slot interfere unless one captures the receiver.
//!
//! This crate models exactly those two properties:
//!
//! * [`codec`] — the RACH1/RACH2 codec pair, plus the service-interest
//!   classes of application-level discovery.
//! * [`frame`] — the proximity-signal frame vocabulary carrying the
//!   protocol fields of Algorithms 1–3.
//! * [`medium`] — the shared-medium resolver: per-slot, per-receiver
//!   decoding with orthogonal codecs, same-codec collisions and a
//!   configurable capture margin.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod codec;
pub mod frame;
pub mod medium;

pub use codec::{RachCodec, ServiceClass};
pub use frame::{FrameKind, ProximitySignal};
pub use medium::{DeliveryReport, Medium, Transmission};
