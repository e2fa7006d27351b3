//! # `pdp-stream` — data-stream substrate
//!
//! The stream model of *"Differential Privacy for Protecting Private Patterns
//! in Data Streams"* (ICDE 2023), §III-A:
//!
//! * a **data stream** `S_D = (d_1, d_2, …)` is an infinite tuple of raw data
//!   items, one per timestamp;
//! * an **event stream** `S_E = (e_1, e_2, …)` extracts the data tuples of
//!   interest, in temporal order;
//! * multiple event streams are merged into a single event stream (the
//!   relative order of equal-timestamp events from different streams is
//!   irrelevant to every result in the paper, see Fig. 1);
//! * windows chop the event stream into finite scopes, and within each window
//!   the DP mechanisms observe **indicator vectors** `I(e) ∈ {0,1}` per event
//!   type (Def. 5 of the paper).
//!
//! This crate provides those pieces: timestamps ([`Timestamp`],
//! [`TimeDelta`]), typed events ([`Event`]), event-type names
//! ([`TypeRegistry`]), ordered event sequences ([`EventStream`]), the k-way
//! temporal merge ([`merge_streams`]), bounded out-of-order tolerance
//! ([`ReorderBuffer`]), tumbling/sliding/count windows ([`WindowAssigner`])
//! and per-window presence vectors ([`IndicatorVector`]).

mod error;
mod event;
mod indicator;
mod interner;
mod merge;
mod reorder;
mod stream;
mod time;
mod window;

pub use error::StreamError;
pub use event::{AttrValue, Event, EventType};
pub use indicator::{words_for, IndicatorVector, TypeMask, WindowedIndicators};
pub use interner::TypeRegistry;
pub use merge::merge_streams;
pub use reorder::{ReorderBuffer, ReorderSnapshot};
pub use stream::EventStream;
pub use time::{TimeDelta, Timestamp};
pub use window::{Window, WindowAssigner, WindowKind};
