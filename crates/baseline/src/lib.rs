//! # ffd2d-baseline — the FST comparator (Chao et al. 2013)
//!
//! The paper's Figs. 3 and 4 compare the proposed ST method against the
//! *bio-inspired proximity discovery and synchronization* scheme of
//! Chao, Lee, Chou & Wei (IEEE Comm. Letters 2013) — referred to as
//! **FST**. FST is a pure mesh firefly protocol:
//!
//! * every device free-runs a Mirollo–Strogatz oscillator and
//!   broadcasts a proximity signal when it fires;
//! * every decoded PS couples into the receiver through the PRC
//!   (eq. (5)) — *all* audible neighbours, the "whole graph for each
//!   node" that §IV criticises;
//! * discovery (neighbour + service) is passive: decoding a PS reveals
//!   the sender and its service class.
//!
//! The implementation reuses the identical substrate as the ST engine
//! (`ffd2d-core`'s [`World`](ffd2d_core::world::World), devices, fast
//! medium, jittered transmissions with age stamps), so every
//! difference in Figs. 3–4 is attributable to the protocol, not the
//! plumbing.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod fst;

pub use fst::FstProtocol;
