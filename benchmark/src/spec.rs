//! The five workloads: what service each one builds and what traffic it
//! is fed. Everything else in the benchmark is one harness parameterised
//! by a [`Spec`].

use pdp_cep::Pattern;
use pdp_core::{
    AdaptiveConfig, ControlPlane, ControlPlaneConfig, CoreError, PpmKind, ServiceBuilder,
    ServiceConfig, ShardedService, StreamingConfig, SubjectId,
};
use pdp_dp::{DpRng, Epsilon};
use pdp_metrics::Alpha;
use pdp_stream::{EventType, IndicatorVector, TimeDelta, WindowedIndicators};

/// Batches in the pre-generated input pool (replayed cyclically).
pub const POOL_BATCHES: usize = 2048;

/// Batches of the pool every fixed-size part of a run uses: the
/// correctness gate's prefix is half of it, the layer replays all of it.
pub const REPLAY_BATCHES: usize = 512;

/// History windows granted to the adaptive PPM (and the capacity of its
/// sliding released-window history).
pub const HISTORY_WINDOWS: usize = 128;

/// One workload.
#[derive(Debug, Clone)]
pub struct Spec {
    pub name: &'static str,
    /// Why the workload exists (one line; copied into `BENCHMARK.json`).
    pub why: &'static str,
    pub n_shards: usize,
    pub n_subjects: u64,
    pub n_types: usize,
    /// Private patterns, spread evenly over the subjects.
    pub n_private: usize,
    /// Elements per private pattern.
    pub private_len: usize,
    pub n_queries: usize,
    /// Elements per target query.
    pub query_len: usize,
    /// Adaptive PPM (Algorithm 1 at every epoch compile) instead of the
    /// uniform one.
    pub adaptive: bool,
    pub window_ms: i64,
    pub max_delay_ms: i64,
    /// Events per `push_batch` call.
    pub batch: usize,
    /// Event-time length of one batch, microseconds; with `batch` it
    /// sets how many events land in a window.
    pub batch_us: i64,
    /// Zipf(1.0) subject popularity instead of uniform.
    pub zipf: bool,
    /// Share of events stamped earlier than their arrival position, by a
    /// uniform lateness of at most `ooo_max_ms` (inside the bound).
    pub ooo_share: f64,
    pub ooo_max_ms: i64,
    /// Share of events later than `max_delay_ms` (the service must drop
    /// and count them).
    pub late_share: f64,
    /// Ingest with a write-ahead log attached.
    pub wal: bool,
    /// Batches between pattern churn + `begin_epoch` (0 = never).
    pub churn_every: usize,
    /// Batches between checkpoints with WAL rotation (0 = never).
    pub checkpoint_every: usize,
    /// Drive the service through `serve` on loopback instead of calling
    /// it in-process.
    pub edge: bool,
}

const SPARSE: Spec = Spec {
    name: "sparse-1shard",
    why: "single-threaded baseline; ~33 events per window, so close, flip, settle and answer are the largest share",
    n_shards: 1,
    n_subjects: 256,
    n_types: 32,
    n_private: 64,
    private_len: 2,
    n_queries: 2,
    query_len: 1,
    adaptive: false,
    window_ms: 100,
    max_delay_ms: 40,
    batch: 512,
    batch_us: 1_536_000,
    zipf: false,
    ooo_share: 1.0,
    ooo_max_ms: 20,
    late_share: 0.0,
    wal: false,
    churn_every: 0,
    checkpoint_every: 0,
    edge: false,
};

/// The five workloads, in reporting order.
pub fn all() -> Vec<Spec> {
    vec![
        SPARSE,
        Spec {
            name: "sparse-4shard",
            why: "the sparse-1shard input through 4 shards: every shard releases every window, so it shows the multi-shard tax",
            n_shards: 4,
            ..SPARSE
        },
        Spec {
            name: "dense-4shard",
            why: "65536 Zipf subjects, 256 types, 1024 patterns, 1600 events per window, late events: route, hand-off, reorder, detect dominate",
            n_shards: 4,
            n_subjects: 65_536,
            n_types: 256,
            n_private: 1024,
            batch_us: 32_000,
            zipf: true,
            ooo_share: 0.10,
            ooo_max_ms: 40,
            late_share: 0.02,
            ..SPARSE
        },
        Spec {
            name: "edge",
            why: "serve on loopback, open loop 2500 req/s then closed loop: frame codec, thread hops and socket I/O dominate",
            n_shards: 4,
            n_subjects: 4096,
            n_queries: 8,
            window_ms: 10,
            max_delay_ms: 5,
            ooo_max_ms: 2,
            batch: 128,
            // at EDGE_RATE_RPS requests/s event time equals the open-loop
            // schedule time
            batch_us: 1_000_000 / EDGE_RATE_RPS as i64,
            edge: true,
            ..SPARSE
        },
        Spec {
            name: "durable-churn",
            why: "WAL attached, adaptive PPM, pattern churn with begin_epoch and rotating checkpoints: durability and control plane on the data path",
            n_shards: 4,
            private_len: 3,
            n_queries: 8,
            query_len: 2,
            adaptive: true,
            wal: true,
            churn_every: 1000,
            checkpoint_every: 8000,
            ..SPARSE
        },
    ]
}

/// Look a workload up by name.
pub fn by_name(name: &str) -> Option<Spec> {
    all().into_iter().find(|s| s.name == name)
}

/// Open-loop request rate of the `edge` workload's phase A.
pub const EDGE_RATE_RPS: u64 = 2500;

impl Spec {
    /// Event time of the first event of pool batch `b`, floored to the
    /// millisecond grid.
    pub fn batch_base_ms(&self, b: usize) -> i64 {
        b as i64 * self.batch_us / 1000
    }

    /// Batches in the input pool: [`POOL_BATCHES`], rounded up so one
    /// pass spans a whole number of milliseconds and every replay cycle
    /// sits on the same grid.
    pub fn pool_batches(&self) -> usize {
        let step = (1000 / gcd(self.batch_us, 1000)) as usize;
        POOL_BATCHES.div_ceil(step) * step
    }

    /// Event-time length of one pass over the pool.
    pub fn pool_span_ms(&self) -> i64 {
        self.batch_base_ms(self.pool_batches())
    }

    pub fn window(&self) -> TimeDelta {
        TimeDelta::from_millis(self.window_ms)
    }

    pub fn max_delay(&self) -> TimeDelta {
        TimeDelta::from_millis(self.max_delay_ms)
    }

    pub fn ppm(&self) -> PpmKind {
        let eps = Epsilon::new(1.0).expect("1 is a valid epsilon");
        if self.adaptive {
            PpmKind::Adaptive {
                eps,
                config: AdaptiveConfig::default(),
            }
        } else {
            PpmKind::Uniform { eps }
        }
    }

    pub fn service_config(&self, seed: u64) -> ServiceConfig {
        ServiceConfig {
            n_shards: self.n_shards,
            n_types: self.n_types,
            alpha: Alpha::HALF,
            ppm: self.ppm(),
            streaming: StreamingConfig::tumbling(self.window()),
            max_delay: self.max_delay(),
            seed,
            history_window: if self.adaptive { HISTORY_WINDOWS } else { 0 },
        }
    }

    /// Subjects own private patterns at this stride.
    fn private_stride(&self) -> u64 {
        self.n_subjects / self.n_private as u64
    }

    /// The `i`-th private pattern: `private_len` consecutive types
    /// starting at a per-owner offset.
    pub fn private_pattern(&self, i: usize) -> (SubjectId, Pattern) {
        let owner = i as u64 * self.private_stride();
        (
            SubjectId(owner),
            self.run_of_types(&format!("priv{owner}"), i, self.private_len),
        )
    }

    fn run_of_types(&self, name: &str, first: usize, len: usize) -> Pattern {
        let types = (0..len)
            .map(|j| EventType(((first + j) % self.n_types) as u32))
            .collect();
        Pattern::seq(name, types).expect("non-empty pattern")
    }

    /// The pattern churn registers (and at once revokes) before epoch
    /// transition `round`, on a rotating subject.
    pub fn churn_pattern(&self, round: usize) -> (SubjectId, Pattern) {
        (
            SubjectId(round as u64 % self.n_subjects),
            self.run_of_types(&format!("churn{round}"), round, self.private_len),
        )
    }

    /// Seeded history for the adaptive PPM: every type present with
    /// probability one half, independently.
    pub fn history(&self, seed: u64) -> WindowedIndicators {
        let mut rng = DpRng::seed_from(seed ^ 0x6869_7374);
        let windows = (0..HISTORY_WINDOWS)
            .map(|_| {
                IndicatorVector::from_present(
                    (0..self.n_types as u32)
                        .filter(|_| rng.bernoulli(0.5))
                        .map(EventType),
                    self.n_types,
                )
            })
            .collect();
        WindowedIndicators::new(windows)
    }

    /// Replay the setup-phase registrations into `reg`, in the one order
    /// both the service and the reference control plane use (the order
    /// fixes pattern ids and the flip table).
    fn register(&self, seed: u64, reg: &mut dyn Registrar) {
        for s in 0..self.n_subjects {
            reg.subject(SubjectId(s));
        }
        for i in 0..self.n_private {
            let (owner, pattern) = self.private_pattern(i);
            reg.private(owner, pattern);
        }
        for q in 0..self.n_queries {
            reg.query(
                &format!("q{q}?"),
                self.run_of_types(&format!("q{q}"), q, self.query_len),
            );
        }
        if self.adaptive {
            reg.history(self.history(seed));
        }
    }

    /// Build the service in whatever execution mode `build()` picks on
    /// this host — the benchmark measures the deployed default.
    pub fn build_service(&self, seed: u64) -> Result<ShardedService, CoreError> {
        let mut builder = ServiceBuilder::new(self.service_config(seed))?;
        self.register(seed, &mut builder);
        builder.build()
    }

    /// A control plane fed the same registrations, not yet compiled: the
    /// reference oracle's plan source and the control-layer replay.
    pub fn control_plane(&self, seed: u64) -> ControlPlane {
        let mut control = ControlPlane::new(ControlPlaneConfig {
            n_types: self.n_types,
            alpha: Alpha::HALF,
            ppm: self.ppm(),
            history_window: if self.adaptive { HISTORY_WINDOWS } else { 0 },
        });
        self.register(seed, &mut control);
        control
    }

    /// The workload's parameters, for the result file.
    pub fn params(&self) -> Vec<(&'static str, f64)> {
        vec![
            ("n_shards", self.n_shards as f64),
            ("n_subjects", self.n_subjects as f64),
            ("n_types", self.n_types as f64),
            ("n_private", self.n_private as f64),
            ("private_len", self.private_len as f64),
            ("n_queries", self.n_queries as f64),
            ("query_len", self.query_len as f64),
            ("adaptive", f64::from(u8::from(self.adaptive))),
            ("window_ms", self.window_ms as f64),
            ("max_delay_ms", self.max_delay_ms as f64),
            ("batch", self.batch as f64),
            (
                "events_per_window",
                self.batch as f64 * self.pool_batches() as f64 * self.window_ms as f64
                    / self.pool_span_ms() as f64,
            ),
            ("zipf", f64::from(u8::from(self.zipf))),
            ("ooo_share", self.ooo_share),
            ("ooo_max_ms", self.ooo_max_ms as f64),
            ("late_share", self.late_share),
            ("wal", f64::from(u8::from(self.wal))),
            ("churn_every", self.churn_every as f64),
            ("checkpoint_every", self.checkpoint_every as f64),
            ("edge", f64::from(u8::from(self.edge))),
            ("pool_batches", self.pool_batches() as f64),
        ]
    }
}

fn gcd(a: i64, b: i64) -> i64 {
    if b == 0 {
        a
    } else {
        gcd(b, a % b)
    }
}

/// The registration surface [`ServiceBuilder`] and [`ControlPlane`]
/// share by name only.
trait Registrar {
    fn subject(&mut self, subject: SubjectId);
    fn private(&mut self, subject: SubjectId, pattern: Pattern);
    fn query(&mut self, name: &str, pattern: Pattern);
    fn history(&mut self, windows: WindowedIndicators);
}

impl Registrar for ServiceBuilder {
    fn subject(&mut self, subject: SubjectId) {
        self.register_subject(subject);
    }
    fn private(&mut self, subject: SubjectId, pattern: Pattern) {
        self.register_private_pattern(subject, pattern);
    }
    fn query(&mut self, name: &str, pattern: Pattern) {
        self.register_target_query(name, pattern);
    }
    fn history(&mut self, windows: WindowedIndicators) {
        self.provide_history(windows);
    }
}

impl Registrar for ControlPlane {
    fn subject(&mut self, subject: SubjectId) {
        self.register_subject(subject);
    }
    fn private(&mut self, subject: SubjectId, pattern: Pattern) {
        self.register_private_pattern(subject, pattern);
    }
    fn query(&mut self, name: &str, pattern: Pattern) {
        self.add_consumer_query(name, pattern);
    }
    fn history(&mut self, windows: WindowedIndicators) {
        self.provide_history(windows);
    }
}
