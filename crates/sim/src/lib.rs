//! Deterministic discrete-event simulation kernel.
//!
//! This crate is the substrate replacing GloMoSim's simulation core in the
//! RMAC reproduction. It provides:
//!
//! * [`SimTime`] — a nanosecond-resolution virtual clock,
//! * [`EventQueue`] — a time-ordered event heap with deterministic FIFO
//!   tie-breaking for simultaneous events (the differential-testing
//!   oracle), and [`CalendarQueue`] — a calendar/ladder queue with the
//!   identical pop order at O(1) amortized cost, tuned to the 15 µs
//!   tone-window cadence (the engine's default),
//! * [`timer`] — generation tokens for cheap timer cancellation,
//! * [`rng`] — seedable, splittable random number generation so that every
//!   replication is reproducible from a single `u64` seed.
//!
//! The kernel dispatches each causally-coupled region single-threaded:
//! wireless MAC simulations are dominated by fine-grained causally-ordered
//! events, so parallelism is applied across independent replications (see
//! `rmac-experiments`) and across radio-isolated components (the engine's
//! sharded runner), never within one coupled region.

pub mod calendar;
pub mod hash;
pub mod queue;
pub mod rng;
pub mod sim_queue;
pub mod time;
pub mod timer;

pub use calendar::CalendarQueue;
pub use hash::{DetHashMap, DetHashSet, DetHasher, DetState};
pub use queue::EventQueue;
pub use rng::SimRng;
pub use sim_queue::SimQueue;
pub use time::SimTime;
pub use timer::TimerSlot;
