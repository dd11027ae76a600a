//! The RACH codec pair and service classes.
//!
//! §III: *"we have considered that PS will use two different RACH codec
//! i.e. a pair of RACH codec. One codec use for keep-alive i.e. for
//! synchronization purpose where as other codec for other event."* and
//! §IV assigns them roles: *"RACH2 is use for synchronization among sub
//! trees whereas RACH1 for regular operation for firefly algorithm."*
//!
//! Application-level discovery rides the same preambles: *"Different
//! codecs scheme indicate different services in the application."*
//! [`ServiceClass`] is that service-interest space, sized to LTE's 64
//! preamble indices. The medium keys its collision accumulators by
//! [`RachCodec`]: different codecs never interfere, the same codec in
//! the same slot does.

use serde::{Deserialize, Serialize};

/// The two proximity-signal codecs.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub enum RachCodec {
    /// Regular firefly operation: firing pulses / keep-alive beacons.
    Rach1,
    /// Inter-fragment synchronization (the `H_Connect` handshake of
    /// Algorithm 2).
    Rach2,
}

impl RachCodec {
    /// Both codecs, in protocol order.
    pub const ALL: [RachCodec; 2] = [RachCodec::Rach1, RachCodec::Rach2];

    /// This codec in the trace-event vocabulary.
    #[inline]
    pub fn trace_codec(self) -> ffd2d_trace::Codec {
        match self {
            RachCodec::Rach1 => ffd2d_trace::Codec::Rach1,
            RachCodec::Rach2 => ffd2d_trace::Codec::Rach2,
        }
    }
}

impl core::fmt::Display for RachCodec {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            RachCodec::Rach1 => write!(f, "RACH1"),
            RachCodec::Rach2 => write!(f, "RACH2"),
        }
    }
}

/// An application service interest (0–63, LTE's preamble index space).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub struct ServiceClass(pub u8);

impl ServiceClass {
    /// Number of distinguishable service classes (64 preamble shifts).
    pub const COUNT: u8 = 64;

    /// The keep-alive / no-service class.
    pub const KEEP_ALIVE: ServiceClass = ServiceClass(0);

    /// Construct, validating the LTE preamble-index range.
    pub fn new(id: u8) -> ServiceClass {
        assert!(id < Self::COUNT, "service class must be < {}", Self::COUNT);
        ServiceClass(id)
    }

    /// True if two devices share a service interest (application-level
    /// proximity criterion).
    pub fn matches(self, other: ServiceClass) -> bool {
        self == other
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn service_class_matching() {
        assert!(ServiceClass::new(5).matches(ServiceClass::new(5)));
        assert!(!ServiceClass::new(5).matches(ServiceClass::new(6)));
    }

    #[test]
    #[should_panic(expected = "service class")]
    fn out_of_range_service_rejected() {
        let _ = ServiceClass::new(64);
    }

    #[test]
    fn display_names() {
        assert_eq!(RachCodec::Rach1.to_string(), "RACH1");
        assert_eq!(RachCodec::Rach2.to_string(), "RACH2");
    }
}
