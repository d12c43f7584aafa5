//! Foundation types for the Optane DCPMM memory-hierarchy simulator.
//!
//! This crate provides the small, dependency-free building blocks shared by
//! every layer of the simulator:
//!
//! - [`addr`]: physical addresses and the cacheline / XPLine geometry that
//!   the whole study revolves around (64 B cachelines vs. 256 B 3D-XPoint
//!   media lines),
//! - [`clock`]: simulated time in CPU cycles,
//! - [`linetable`]: dense, address-ordered per-cacheline maps for the
//!   records the access path consults on every simulated load and store,
//! - [`rng`]: a deterministic SplitMix64 generator so every experiment is
//!   bit-reproducible,
//! - [`resource`]: server-queue primitives used to model contention on
//!   shared hardware resources (media banks, iMC queues, DRAM channels),
//! - [`stats`]: event and byte counters plus latency aggregation,
//! - [`wire`]: a checked little-endian codec for checkpoint payloads.

#![forbid(unsafe_code)]

pub mod addr;
pub mod clock;
pub mod linetable;
pub mod resource;
pub mod rng;
pub mod stats;
pub mod wire;

pub use addr::{Addr, CACHELINES_PER_XPLINE, CACHELINE_BYTES, XPLINE_BYTES};
pub use clock::Cycles;
pub use linetable::LineTable;
pub use resource::{BandwidthGate, QueueStats, Server, ServerPool};
pub use rng::SplitMix64;
pub use stats::{ByteCounter, Counter, HitMiss, LatencyStats};
pub use wire::{WireError, WireReader, WireWriter};
