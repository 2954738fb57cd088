//! Deterministic discrete-event simulation core for the Dilu reproduction.
//!
//! Everything in this workspace runs on simulated time: [`SimTime`] and
//! [`SimDuration`] are integer-microsecond newtypes, [`EventQueue`] is a
//! future event list ordered by `(instant, push sequence)`, so same-instant
//! events pop in push order and a cancellation token is the event's key,
//! and [`rng`] provides seeded, stream-splittable random number generators
//! so that every experiment is reproducible from a single seed.
//!
//! # Examples
//!
//! ```
//! use dilu_sim::{EventQueue, SimDuration, SimTime};
//!
//! let mut queue = EventQueue::new();
//! queue.push(SimTime::from_millis(5), "token cycle");
//! queue.push(SimTime::from_millis(1), "request arrival");
//! let (when, what) = queue.pop().unwrap();
//! assert_eq!(when, SimTime::from_millis(1));
//! assert_eq!(what, "request arrival");
//! assert_eq!(when + SimDuration::from_millis(4), SimTime::from_millis(5));
//! ```

#![forbid(unsafe_code)]
// The sim core takes no exception to the determinism ban in clippy.toml:
// under clippy, any `allow` of these two lints here is error E0453.
#![forbid(clippy::disallowed_types, clippy::disallowed_methods)]
#![warn(missing_docs)]

mod events;
mod time;

pub mod rng;

pub use events::{EventQueue, EventToken};
pub use time::{SimDuration, SimTime};
