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
//! This crate provides those pieces: [`time`] (timestamps), [`event`] (typed
//! events), [`interner`] (event-type names), [`schema`] (declared attributes),
//! [`stream`] (event sequences and sources), [`merge`] (k-way temporal merge),
//! [`window`] (tumbling/sliding/count windows) and [`indicator`] (per-window
//! presence vectors).

pub mod error;
pub mod event;
pub mod indicator;
pub mod interner;
pub mod merge;
pub mod reorder;
pub mod schema;
pub mod stream;
pub mod time;
pub mod window;

pub use error::StreamError;
pub use event::{AttrValue, Event, EventType};
pub use indicator::{words_for, IndicatorVector, TypeMask, WindowedIndicators};
pub use interner::TypeRegistry;
pub use merge::merge_streams;
pub use reorder::{ReorderBuffer, ReorderSnapshot};
pub use schema::{AttrKind, EventSchema, SchemaRegistry};
pub use stream::{EventStream, StreamSource, VecSource};
pub use time::{TimeDelta, Timestamp};
pub use window::{Window, WindowAssigner, WindowKind};
