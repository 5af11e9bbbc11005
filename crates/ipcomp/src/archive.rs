//! Time-series archive container (format version 4): cross-timestep residual
//! encoding with step-spanning progressive retrieval.
//!
//! A scientific archive holds N timesteps × V variables of one domain. The
//! single-snapshot container (versions 2 and 3) treats each step as an island;
//! this module applies the paper's residual idea *across time*: step `t` is
//! stored either **independent** (a keyframe) or as a **cross-timestep
//! residual** against the reconstruction of its predecessor at a configurable
//! *reference fidelity*. Both flavors reuse the existing encode pipeline
//! unchanged — a step's payload is a standard version-2/3 container over the
//! keyframe field or the residual field — so every per-step capability
//! (progressive planes, ROI precincts, ranged chunk plans) composes with the
//! time axis for free.
//!
//! ## Framing (version 4)
//!
//! ```text
//! version word = 4 | LAYOUT_PACKED
//!   magic "IPCP" | version word u32 | prefix_len u64
//!   num_steps u32 | num_vars u32
//!   keyframe_interval u32 | reference_bound f64 | finest_bound f64
//!   ndim u8 | dims u64 × ndim
//!   per variable: name_len u16 | utf8 name
//!   directory, step-major: (kind u8 | offset u64 | len u64) × steps × vars
//!   per entry, directory order: its container's 16-byte prelude and
//!       packed metadata block, verbatim                       up to prefix_len
//!   payload: the embedded per-step containers, back to back   to the last byte
//! ```
//!
//! The directory's entries tile the payload: the first starts where the
//! prefix ends, each next one where the one before it ends, the last ends
//! with the file. Every embedded container is byte-identical to a standalone
//! [`Compressed::to_bytes`](crate::Compressed::to_bytes) of the same field
//! and is addressed by its directory entry: its map is built with the
//! entry's own length, so every chunk range it lists lies inside the entry,
//! and the reader shifts a step's lowered reads by the entry's offset. The
//! container grammar and reader are untouched; the hoisted copies duplicate each
//! one's metadata front (≈ 0.1 % of an archive of 64³ steps) so that
//! [`ArchiveMap`] builds every step's map from the prefix alone. The
//! prefix states its own length right after the version word, where the
//! 4 KB probe that opens anything always finds it: opening is that probe
//! plus at most one GET of exactly the rest of the prefix, as a container's
//! is (see [`crate::container`]). The unflagged version-4 word of the plain
//! framing, which kept each step's metadata only in its embedded container,
//! is retired and refused by name ([`RETIRED_LAYOUT`]).
//!
//! The hoisted copies are trusted: [`ArchiveMap`] builds each step's map
//! from its copy and never cross-reads the embedded container's own prelude
//! and block, because that would cost the GET per step the hoist removed.
//! A copy that disagrees with the container behind it is read as the
//! truth: the step's chunks are fetched where the copy says, and its decode
//! either refuses what it finds there or reconstructs from it.
//!
//! ## Determinism and bit-identity
//!
//! The encoder derives each chain base by *decoding its own output* at the
//! reference fidelity (the exact read path the decoder uses), so encoder and
//! decoder arithmetic can never drift: archive retrieval of any step is
//! bit-identical to compressing the same keyframe/residual fields as
//! standalone containers, decoding them with [`ProgressiveDecoder`], and
//! summing the chain by hand. Because each residual is quantized against the
//! *reconstructed* predecessor, reconstruction error never accumulates along
//! a chain: a step retrieved at bound `e` is within `e` of the original
//! field, keyframe or residual alike.
//!
//! ## Rollback
//!
//! [`ArchiveReader`] commits chain state and byte accounting only after a
//! step's loads fully succeed. A failed step load (short read, fault) leaves
//! the reader exactly as it was after the last good step; retrying after the
//! backend heals continues the chain and produces bit-identical output.

use std::collections::HashSet;
use std::sync::Arc;

use ipc_tensor::{ArrayD, Shape};

use crate::config::Config;
use crate::container::{
    metadata_front, read_front, ContainerMap, MetaCursor, LAYOUT_PACKED, MAGIC, RETIRED_LAYOUT,
};
use crate::error::{IpcompError, Result};
use crate::planner::{plan_request, ChunkRead, RequestFetch};
use crate::precinct::RoiBox;
use crate::progressive::{ProgressiveDecoder, RetrievalRequest, StreamEvent};
use crate::source::{ByteRange, ChunkSource, MemorySource};

/// Container format version of the time-series archive framing.
pub const VERSION_ARCHIVE: u32 = 4;

/// Hard caps mirroring the hardened single-container limits: a corrupt
/// directory fails validation instead of driving huge allocations.
const MAX_STEPS: u64 = 1 << 20;
const MAX_VARS: u64 = 1 << 12;
const MAX_ENTRIES: u64 = 1 << 22;
const MAX_NAME: usize = 4096;
const MAX_ELEMENTS: u64 = 1 << 48;

/// How one step of one variable is stored.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum StepKind {
    /// Independent: the embedded container encodes the field itself.
    Keyframe,
    /// The embedded container encodes `field − base`, where `base` is the
    /// chain reconstruction of the predecessor at the reference fidelity.
    Residual,
}

impl StepKind {
    fn id(self) -> u8 {
        match self {
            StepKind::Keyframe => 0,
            StepKind::Residual => 1,
        }
    }

    fn from_id(id: u8) -> Result<Self> {
        match id {
            0 => Ok(StepKind::Keyframe),
            1 => Ok(StepKind::Residual),
            _ => Err(IpcompError::CorruptContainer("unknown archive step kind")),
        }
    }
}

/// Encoding knobs of a time-series archive.
#[derive(Debug, Clone, PartialEq)]
pub struct ArchiveConfig {
    /// A keyframe every this many steps (step 0 is always one). `1` makes
    /// every step independent — the degenerate archive that matches
    /// per-step containers exactly.
    pub keyframe_interval: usize,
    /// Fidelity (absolute error bound) at which each chain base is
    /// reconstructed. Must be ≥ `finest_bound`; coarser reference bounds
    /// make chains cheaper to follow but residuals slightly larger.
    pub reference_bound: f64,
    /// Absolute error bound each step's container is encoded with — the
    /// finest fidelity any retrieval can reach.
    pub finest_bound: f64,
    /// Per-step encoder configuration (interpolation, chunking, precincts).
    pub codec: Config,
}

impl ArchiveConfig {
    /// A config with the given bounds and default codec, keyframes every 8
    /// steps.
    pub fn new(finest_bound: f64, reference_bound: f64) -> Self {
        Self {
            keyframe_interval: 8,
            reference_bound,
            finest_bound,
            codec: Config::default(),
        }
    }

    fn validate(&self) -> Result<()> {
        if self.keyframe_interval == 0 {
            return Err(IpcompError::InvalidInput(
                "keyframe_interval must be at least 1".into(),
            ));
        }
        for (name, v) in [
            ("finest_bound", self.finest_bound),
            ("reference_bound", self.reference_bound),
        ] {
            if !(v.is_finite() && v > 0.0) {
                return Err(IpcompError::InvalidInput(format!(
                    "{name} must be positive and finite, got {v}"
                )));
            }
        }
        if self.reference_bound < self.finest_bound {
            return Err(IpcompError::InvalidInput(format!(
                "reference_bound ({}) must be at least finest_bound ({})",
                self.reference_bound, self.finest_bound
            )));
        }
        Ok(())
    }
}

/// One directory entry: where one (step, variable) container lives.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ArchiveEntry {
    /// Keyframe or residual.
    pub kind: StepKind,
    /// Absolute byte offset of the embedded container.
    pub offset: u64,
    /// Serialized length of the embedded container.
    pub len: u64,
}

/// Builds a version-4 archive step by step.
///
/// Feed every timestep's fields (one per variable, fixed order) through
/// [`ArchiveBuilder::push_step`]; the builder keeps each variable's chain
/// base — the reference-fidelity reconstruction of the previous step — and
/// encodes each non-keyframe step as a residual against it, then serializes
/// the whole archive with [`ArchiveBuilder::finish`].
pub struct ArchiveBuilder {
    config: ArchiveConfig,
    shape: Shape,
    variables: Vec<String>,
    /// Chain base per variable: the composed reconstruction of the latest
    /// pushed step at the reference fidelity.
    bases: Vec<Option<ArrayD<f64>>>,
    /// Per step, per variable: kind + serialized embedded container.
    steps: Vec<Vec<(StepKind, Vec<u8>)>>,
}

impl ArchiveBuilder {
    /// Start an archive of `variables` over the fixed domain `shape`.
    pub fn new(variables: Vec<String>, shape: Shape, config: ArchiveConfig) -> Result<Self> {
        config.validate()?;
        if variables.is_empty() || variables.len() as u64 > MAX_VARS {
            return Err(IpcompError::InvalidInput(format!(
                "archive needs 1..={MAX_VARS} variables, got {}",
                variables.len()
            )));
        }
        for name in &variables {
            if name.len() > MAX_NAME {
                return Err(IpcompError::InvalidInput(format!(
                    "variable name exceeds {MAX_NAME} bytes"
                )));
            }
        }
        if shape.is_empty() || shape.len() as u64 > MAX_ELEMENTS {
            return Err(IpcompError::InvalidInput("invalid archive shape".into()));
        }
        let bases = vec![None; variables.len()];
        Ok(Self {
            config,
            shape,
            variables,
            bases,
            steps: Vec::new(),
        })
    }

    /// Number of steps pushed so far.
    pub fn num_steps(&self) -> usize {
        self.steps.len()
    }

    /// Append one timestep: `fields[v]` is variable `v`'s snapshot. Returns
    /// the step index. The step is a keyframe when its index is a multiple
    /// of the keyframe interval, a residual against the chain base
    /// otherwise.
    pub fn push_step(&mut self, fields: &[ArrayD<f64>]) -> Result<usize> {
        if fields.len() != self.variables.len() {
            return Err(IpcompError::InvalidInput(format!(
                "expected {} fields, got {}",
                self.variables.len(),
                fields.len()
            )));
        }
        let step = self.steps.len();
        if step as u64 >= MAX_STEPS
            || ((step as u64 + 1) * self.variables.len() as u64) > MAX_ENTRIES
        {
            return Err(IpcompError::InvalidInput(
                "archive step limit reached".into(),
            ));
        }
        let kind = if step.is_multiple_of(self.config.keyframe_interval) {
            StepKind::Keyframe
        } else {
            StepKind::Residual
        };
        let mut encoded = Vec::with_capacity(fields.len());
        for (v, field) in fields.iter().enumerate() {
            if field.shape() != &self.shape {
                return Err(IpcompError::InvalidInput(format!(
                    "variable {v} shape {:?} does not match archive shape {:?}",
                    field.shape().dims(),
                    self.shape.dims()
                )));
            }
            let payload = match kind {
                StepKind::Keyframe => field.clone(),
                StepKind::Residual => {
                    let base = self.bases[v]
                        .as_ref()
                        .expect("residual step always has a predecessor base");
                    sub_fields(field, base)
                }
            };
            let compressed = crate::compressor::compress(
                &payload,
                self.config.finest_bound,
                &self.config.codec,
            )?;
            let bytes = compressed.to_bytes();
            // Derive the chain base through the exact read path the archive
            // decoder uses (serialized bytes → metadata map → progressive
            // retrieve at the reference bound), so encoder and decoder can
            // never disagree on a single bit of the base.
            let delta = decode_reference(&bytes, self.config.reference_bound)?;
            self.bases[v] = Some(match (kind, self.bases[v].take()) {
                (StepKind::Keyframe, _) => delta,
                (StepKind::Residual, Some(base)) => add_fields(&base, &delta),
                (StepKind::Residual, None) => {
                    unreachable!("residual step always has a predecessor base")
                }
            });
            encoded.push((kind, bytes));
        }
        self.steps.push(encoded);
        Ok(step)
    }

    /// Serialize the archive: the metadata prefix (framing header, directory,
    /// every embedded container's prelude and metadata block), then the
    /// embedded containers.
    pub fn finish(self) -> Result<Vec<u8>> {
        if self.steps.is_empty() {
            return Err(IpcompError::InvalidInput(
                "archive needs at least one step".into(),
            ));
        }
        let vars = self.variables.len();
        let steps = self.steps.len();
        let containers = || self.steps.iter().flatten().map(|(_, bytes)| bytes);
        let mut out = Vec::new();
        out.extend_from_slice(MAGIC);
        out.extend_from_slice(&(VERSION_ARCHIVE | LAYOUT_PACKED).to_le_bytes());
        out.extend_from_slice(&0u64.to_le_bytes()); // prefix_len, below
        out.extend_from_slice(&(steps as u32).to_le_bytes());
        out.extend_from_slice(&(vars as u32).to_le_bytes());
        out.extend_from_slice(&(self.config.keyframe_interval as u32).to_le_bytes());
        out.extend_from_slice(&self.config.reference_bound.to_le_bytes());
        out.extend_from_slice(&self.config.finest_bound.to_le_bytes());
        out.push(self.shape.ndim() as u8);
        for &d in self.shape.dims() {
            out.extend_from_slice(&(d as u64).to_le_bytes());
        }
        for name in &self.variables {
            out.extend_from_slice(&(name.len() as u16).to_le_bytes());
            out.extend_from_slice(name.as_bytes());
        }
        // Directory: 17 bytes per entry, step-major, offsets assigned in
        // payload order from the end of the prefix.
        let hoisted: usize = containers().map(|c| metadata_front(c).len()).sum();
        let prefix_len = (out.len() + steps * vars * 17 + hoisted) as u64;
        out[8..16].copy_from_slice(&prefix_len.to_le_bytes());
        let mut offset = prefix_len;
        for (kind, bytes) in self.steps.iter().flatten() {
            out.push(kind.id());
            out.extend_from_slice(&offset.to_le_bytes());
            out.extend_from_slice(&(bytes.len() as u64).to_le_bytes());
            offset += bytes.len() as u64;
        }
        containers().for_each(|c| out.extend_from_slice(metadata_front(c)));
        debug_assert_eq!(out.len() as u64, prefix_len);
        containers().for_each(|c| out.extend_from_slice(c));
        Ok(out)
    }
}

/// Decode the serialized container `bytes` at the reference `bound`, through
/// the same map/source path [`ArchiveReader`] uses.
fn decode_reference(bytes: &[u8], bound: f64) -> Result<ArrayD<f64>> {
    let source: Arc<dyn ChunkSource> = Arc::new(MemorySource::new(bytes.to_vec()));
    let map = Arc::new(ContainerMap::open(&source)?);
    let mut dec = ProgressiveDecoder::from_shared_source(source, map);
    Ok(dec.retrieve(RetrievalRequest::ErrorBound(bound))?.data)
}

/// The encode-independent-then-retrieve composition an archive retrieval
/// must be bit-identical to: every step's payload (field or residual) is
/// compressed as its own standalone container, each delta is retrieved at
/// `request` (and at the reference bound for chaining), and residual steps
/// are composed against the reference reconstruction of their predecessor.
///
/// Because a keyframe step's embedded container is byte-identical to the
/// standalone `compress` of the same field, and the codec is deterministic,
/// [`ArchiveReader`] must reproduce this sequence *exactly* — the
/// equivalence tests, the proptest suite, and `bench_e2e`'s archive oracle
/// all assert against it.
pub fn composition_reference(
    fields: &[ArrayD<f64>],
    config: &ArchiveConfig,
    request: RetrievalRequest,
) -> Result<Vec<ArrayD<f64>>> {
    config.validate()?;
    let mut base: Option<ArrayD<f64>> = None;
    let mut out = Vec::with_capacity(fields.len());
    for (t, field) in fields.iter().enumerate() {
        let keyframe = t % config.keyframe_interval == 0;
        let payload = if keyframe {
            field.clone()
        } else {
            sub_fields(field, base.as_ref().expect("step 0 is a keyframe"))
        };
        let c = crate::compress(&payload, config.finest_bound, &config.codec)?;
        let delta_out = ProgressiveDecoder::new(&c).retrieve(request)?.data;
        let delta_ref = ProgressiveDecoder::new(&c)
            .retrieve(RetrievalRequest::ErrorBound(config.reference_bound))?
            .data;
        let (value, next_base) = if keyframe {
            (delta_out, delta_ref)
        } else {
            let b = base.as_ref().expect("step 0 is a keyframe");
            (add_fields(b, &delta_out), add_fields(b, &delta_ref))
        };
        out.push(value);
        base = Some(next_base);
    }
    Ok(out)
}

fn add_fields(a: &ArrayD<f64>, b: &ArrayD<f64>) -> ArrayD<f64> {
    debug_assert_eq!(a.shape(), b.shape());
    let data = a
        .as_slice()
        .iter()
        .zip(b.as_slice())
        .map(|(x, y)| x + y)
        .collect();
    ArrayD::from_vec(a.shape().clone(), data)
}

fn sub_fields(a: &ArrayD<f64>, b: &ArrayD<f64>) -> ArrayD<f64> {
    debug_assert_eq!(a.shape(), b.shape());
    let data = a
        .as_slice()
        .iter()
        .zip(b.as_slice())
        .map(|(x, y)| x - y)
        .collect();
    ArrayD::from_vec(a.shape().clone(), data)
}

/// Parsed archive metadata: framing header, directory, and one
/// [`ContainerMap`] per embedded step container — everything retrieval
/// planning needs, built from ranged reads over the metadata prefix; payload
/// chunks are never touched.
#[derive(Debug)]
pub struct ArchiveMap {
    num_steps: usize,
    variables: Vec<String>,
    keyframe_interval: usize,
    reference_bound: f64,
    finest_bound: f64,
    dims: Vec<usize>,
    /// Step-major: `entries[step * num_vars + var]`.
    entries: Vec<ArchiveEntry>,
    /// Parallel to `entries`.
    maps: Vec<Arc<ContainerMap>>,
    meta_len: u64,
    total_len: u64,
}

impl ArchiveMap {
    /// Parse an archive's metadata from ranged reads: one probe GET plus,
    /// when its prefix is longer than the probe, one GET of exactly the
    /// rest. Every embedded container's map is built from its hoisted copy
    /// in the resident prefix; the copies are trusted over the embedded
    /// containers' own preludes and never cross-read against them, which
    /// would cost a GET per step.
    ///
    /// The directory must tile the payload — entries back to back from the
    /// end of the prefix to the end of the source — before any hoisted copy
    /// is read.
    pub fn open(source: &dyn ChunkSource) -> Result<Self> {
        let total_len = source.len();
        let prefix = read_front(source, |probe| {
            Self::read_prelude(&mut MetaCursor::new(probe), total_len)
        })?;
        let mut cur = MetaCursor::new(&prefix);
        Self::read_prelude(&mut cur, total_len)?;
        let mut map = Self::parse(&mut cur, prefix.len() as u64, total_len)?;
        for e in &map.entries {
            map.maps
                .push(Arc::new(ContainerMap::read(&mut cur, e.len)?));
        }
        if cur.remaining() != 0 {
            return Err(IpcompError::CorruptContainer(
                "archive prefix disagrees with its hoisted metadata",
            ));
        }
        if map.maps.iter().any(|m| m.header.dims != map.dims) {
            return Err(IpcompError::CorruptContainer(
                "embedded container dims disagree with archive header",
            ));
        }
        Ok(map)
    }

    /// Magic, version word and `prefix_len`: a version word other than
    /// `4 | LAYOUT_PACKED` is refused, and so is a prefix that could not
    /// hold these 16 bytes or runs past the `total_len`-byte source.
    fn read_prelude(cur: &mut MetaCursor<'_>, total_len: u64) -> Result<u64> {
        let word = cur.read_magic_version()?;
        if word != VERSION_ARCHIVE | LAYOUT_PACKED {
            return Err(IpcompError::CorruptContainer(match word {
                VERSION_ARCHIVE => RETIRED_LAYOUT,
                _ => "not a version-4 archive container",
            }));
        }
        let prefix_len = cur.read_u64()?;
        if prefix_len > total_len || prefix_len < 16 {
            return Err(IpcompError::CorruptContainer(
                "implausible archive prefix length",
            ));
        }
        Ok(prefix_len)
    }

    /// The framing header and directory from `cur`, with no embedded
    /// container read yet. The payload starts at `payload_at`, and the
    /// directory's entries must tile it up to `total_len`.
    fn parse(cur: &mut MetaCursor<'_>, payload_at: u64, total_len: u64) -> Result<Self> {
        let num_steps = cur.read_u32()? as u64;
        let num_vars = cur.read_u32()? as u64;
        if num_steps == 0 || num_steps > MAX_STEPS {
            return Err(IpcompError::CorruptContainer("implausible step count"));
        }
        if num_vars == 0 || num_vars > MAX_VARS {
            return Err(IpcompError::CorruptContainer("implausible variable count"));
        }
        if num_steps * num_vars > MAX_ENTRIES {
            return Err(IpcompError::CorruptContainer("implausible directory size"));
        }
        let keyframe_interval = cur.read_u32()? as usize;
        if keyframe_interval == 0 {
            return Err(IpcompError::CorruptContainer("zero keyframe interval"));
        }
        let reference_bound = cur.read_f64()?;
        let finest_bound = cur.read_f64()?;
        if !(finest_bound.is_finite()
            && finest_bound > 0.0
            && reference_bound.is_finite()
            && reference_bound >= finest_bound)
        {
            return Err(IpcompError::CorruptContainer("implausible archive bounds"));
        }
        let ndim = cur.read_u8()? as usize;
        if ndim == 0 || ndim > ipc_tensor::MAX_DIMS {
            return Err(IpcompError::CorruptContainer("implausible dimensionality"));
        }
        let mut dims = Vec::with_capacity(ndim);
        let mut elements = 1u64;
        for _ in 0..ndim {
            let d = cur.read_u64()?;
            if d == 0 || d > MAX_ELEMENTS {
                return Err(IpcompError::CorruptContainer("implausible dimension"));
            }
            elements = elements.saturating_mul(d);
            dims.push(d as usize);
        }
        if elements > MAX_ELEMENTS {
            return Err(IpcompError::CorruptContainer("implausible element count"));
        }
        let mut variables = Vec::with_capacity(num_vars as usize);
        for _ in 0..num_vars {
            let len = cur.read_u16()? as usize;
            if len > MAX_NAME {
                return Err(IpcompError::CorruptContainer("implausible variable name"));
            }
            let name = String::from_utf8(cur.read_bytes(len)?.to_vec())
                .map_err(|_| IpcompError::CorruptContainer("variable name not utf-8"))?;
            variables.push(name);
        }
        // 17 bytes an entry: the directory must fit what is left of the
        // prefix before anything proportional to it is allocated.
        if num_steps * num_vars * 17 > cur.remaining() as u64 {
            return Err(IpcompError::CorruptContainer("implausible directory size"));
        }
        let mut entries = Vec::with_capacity((num_steps * num_vars) as usize);
        for _ in 0..num_steps * num_vars {
            let kind = StepKind::from_id(cur.read_u8()?)?;
            let offset = cur.read_u64()?;
            let len = cur.read_u64()?;
            entries.push(ArchiveEntry { kind, offset, len });
        }
        // The entries tile the payload: one container after another, no gap,
        // no overlap, none shared — so a directory can never make the open
        // read (or parse) more containers than the file holds.
        let mut end = payload_at;
        for (i, e) in entries.iter().enumerate() {
            if e.offset != end || e.len == 0 || e.len > total_len - end {
                return Err(IpcompError::CorruptContainer(
                    "archive entries do not tile the payload",
                ));
            }
            end += e.len;
            // Step 0 of every variable must be independent, or no chain has
            // an anchor.
            if i < num_vars as usize && e.kind != StepKind::Keyframe {
                return Err(IpcompError::CorruptContainer(
                    "archive step 0 must be a keyframe",
                ));
            }
        }
        if end != total_len {
            return Err(IpcompError::CorruptContainer(
                "archive entries do not tile the payload",
            ));
        }
        let maps = Vec::with_capacity(entries.len());
        Ok(Self {
            num_steps: num_steps as usize,
            variables,
            keyframe_interval,
            reference_bound,
            finest_bound,
            dims,
            entries,
            maps,
            meta_len: payload_at,
            total_len,
        })
    }

    /// Number of timesteps in the archive.
    pub fn num_steps(&self) -> usize {
        self.num_steps
    }

    /// Variable names, in storage order.
    pub fn variables(&self) -> &[String] {
        &self.variables
    }

    /// Keyframe cadence the archive was encoded with.
    pub fn keyframe_interval(&self) -> usize {
        self.keyframe_interval
    }

    /// Fidelity the chain bases were derived at.
    pub fn reference_bound(&self) -> f64 {
        self.reference_bound
    }

    /// Error bound every step's container was encoded with.
    pub fn finest_bound(&self) -> f64 {
        self.finest_bound
    }

    /// Domain dimensions shared by every step.
    pub fn dims(&self) -> &[usize] {
        &self.dims
    }

    /// Bytes of the metadata prefix — everything ahead of the first embedded
    /// container: framing header, directory and every embedded container's
    /// hoisted prelude and metadata block.
    pub fn meta_len(&self) -> u64 {
        self.meta_len
    }

    /// Total serialized archive size.
    pub fn total_len(&self) -> u64 {
        self.total_len
    }

    /// Directory entry of `(step, variable)`.
    pub fn entry(&self, step: usize, variable: usize) -> &ArchiveEntry {
        &self.entries[step * self.variables.len() + variable]
    }

    /// Metadata map of the embedded container at `(step, variable)`.
    pub fn container(&self, step: usize, variable: usize) -> &Arc<ContainerMap> {
        &self.maps[step * self.variables.len() + variable]
    }

    /// The chain anchor of `start`: the nearest keyframe at or before it.
    /// Reconstructing `start` needs exactly the steps `anchor..=start`.
    pub fn chain_anchor(&self, variable: usize, start: usize) -> usize {
        (0..=start)
            .rev()
            .find(|&s| self.entry(s, variable).kind == StepKind::Keyframe)
            .expect("step 0 is always a keyframe")
    }
}

/// A step-spanning retrieval request: one variable, a half-open step range,
/// a fidelity, and an optional spatial window.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ArchiveRequest {
    /// Index into [`ArchiveMap::variables`].
    pub variable: usize,
    /// First step to reconstruct.
    pub start: usize,
    /// One past the last step to reconstruct.
    pub end: usize,
    /// Fidelity each reconstructed step is retrieved at. Must not be the
    /// [`RetrievalRequest::Roi`] variant — spatial scoping goes through
    /// [`ArchiveRequest::roi`] so it applies to the chain too.
    pub fidelity: RetrievalRequest,
    /// When set, every reconstruction (chain bases included) is scoped to
    /// this window; returned arrays have the window's dims.
    pub roi: Option<RoiBox>,
}

impl ArchiveRequest {
    /// A full-domain request over `steps` at `fidelity`.
    pub fn steps(
        variable: usize,
        steps: std::ops::Range<usize>,
        fidelity: RetrievalRequest,
    ) -> Self {
        Self {
            variable,
            start: steps.start,
            end: steps.end,
            fidelity,
            roi: None,
        }
    }

    fn validate(&self, map: &ArchiveMap) -> Result<()> {
        if self.variable >= map.variables.len() {
            return Err(IpcompError::InvalidInput(format!(
                "variable {} out of range ({} variables)",
                self.variable,
                map.variables.len()
            )));
        }
        if self.start >= self.end || self.end > map.num_steps {
            return Err(IpcompError::InvalidInput(format!(
                "step range {}..{} invalid for {}-step archive",
                self.start, self.end, map.num_steps
            )));
        }
        if matches!(self.fidelity, RetrievalRequest::Roi { .. }) {
            return Err(IpcompError::InvalidInput(
                "use ArchiveRequest::roi for spatial scoping".into(),
            ));
        }
        if let Some(roi) = &self.roi {
            roi.validate(&map.dims)?;
        }
        Ok(())
    }
}

/// What one scheduled step contributes to a request (see
/// [`ArchiveReader::step_schedule`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StepPlan {
    /// The archive step.
    pub step: usize,
    /// Whether the step's reference-fidelity chain base must be computed
    /// (some later step in the request window is a residual against it).
    pub chain: bool,
    /// Whether the step is part of the requested output range.
    pub output: bool,
}

/// One reconstructed step of an archive retrieval.
#[derive(Debug, Clone)]
pub struct StepRetrieval {
    /// The archive step this reconstruction belongs to.
    pub step: usize,
    /// How the step was stored.
    pub kind: StepKind,
    /// The reconstruction at the requested fidelity (window dims under an
    /// ROI request).
    pub data: ArrayD<f64>,
    /// Archive bytes this step's loads fetched (chain + output).
    pub bytes_step: usize,
    /// Point-wise error bound of `data` against the original field.
    pub error_bound: f64,
}

/// Progress of an archive retrieval, emitted as
/// [`StreamEvent::StepReconstructed`] once per output step.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct StepProgress {
    /// Variable being retrieved.
    pub variable: usize,
    /// The step just reconstructed.
    pub step: usize,
    /// How the step was stored.
    pub kind: StepKind,
    /// Output steps emitted so far for this request (1-based).
    pub steps_done: usize,
    /// Output steps the request spans.
    pub steps_in_request: usize,
    /// Archive bytes this step's loads fetched.
    pub bytes_step: usize,
    /// Cumulative archive bytes the reader has fetched.
    pub bytes_total: usize,
    /// Point-wise error bound of the emitted reconstruction.
    pub error_bound: f64,
}

/// Byte accounting of one archive retrieval.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ArchiveOutcome {
    /// Output steps reconstructed.
    pub steps: usize,
    /// Archive bytes fetched by this request alone.
    pub bytes_this_request: usize,
    /// Cumulative archive bytes fetched since the reader was created.
    pub bytes_total: usize,
}

/// The committed chain state of one variable.
struct ChainBase {
    step: usize,
    roi: Option<RoiBox>,
    data: Arc<ArrayD<f64>>,
}

/// Step-spanning progressive reader over a serialized archive.
///
/// Each step decode runs on a fresh [`ProgressiveDecoder`] over the step's
/// map, so per-step rollback semantics are inherited unchanged; the reader
/// adds the chain composition, per-variable chain
/// caching (a sliding window of consecutive requests re-decodes only the
/// steps it hasn't seen), and per-step commit/rollback of its own state.
///
/// A window is **one request** to the storage below: the reader lowers its
/// whole schedule up front ([`plan_archive_request`]'s reads, per decode)
/// into one fetch, cut into groups across level *and step* boundaries
/// ([`crate::planner::fetch_groups`]), and lends it to every step decode,
/// so steps whose chunks sit a metadata block apart come in one read, and a
/// chunk a step's output and chain decodes both read comes once. A group is
/// read when a step's level load first needs it, so steps still decode,
/// commit and stream out one at a time.
pub struct ArchiveReader {
    source: Arc<dyn ChunkSource>,
    map: Arc<ArchiveMap>,
    bases: Vec<Option<ChainBase>>,
    bytes_total: usize,
}

impl ArchiveReader {
    /// Read through `source` with an already-parsed map.
    pub fn new(source: Arc<dyn ChunkSource>, map: Arc<ArchiveMap>) -> Self {
        let bases = (0..map.variables.len()).map(|_| None).collect();
        Self {
            source,
            map,
            bases,
            bytes_total: 0,
        }
    }

    /// Parse the archive's metadata from `source` and open a reader.
    pub fn open(source: Arc<dyn ChunkSource>) -> Result<Self> {
        let map = Arc::new(ArchiveMap::open(&source)?);
        Ok(Self::new(source, map))
    }

    /// The archive's metadata map.
    pub fn map(&self) -> &Arc<ArchiveMap> {
        &self.map
    }

    /// Cumulative archive bytes fetched by this reader.
    pub fn bytes_loaded(&self) -> usize {
        self.bytes_total
    }

    /// The step the cached chain base of `variable` sits at, if any
    /// (diagnostics / tests).
    pub fn chain_cache_step(&self, variable: usize) -> Option<usize> {
        self.bases
            .get(variable)
            .and_then(|b| b.as_ref())
            .map(|b| b.step)
    }

    /// The steps a request will decode, given the current chain cache: the
    /// keyframe-anchored chain prefix (`chain` only), then the output window
    /// (`output`, with `chain` while a later residual still needs the base).
    /// This is what the store planner lowers to byte ranges.
    pub fn step_schedule(&self, request: &ArchiveRequest) -> Result<Vec<StepPlan>> {
        request.validate(&self.map)?;
        let var = request.variable;
        let anchor = self.map.chain_anchor(var, request.start);
        let resume = match &self.bases[var] {
            // A cached base at step b (same spatial scope) lets the chain
            // resume at b+1 — unless a keyframe at or before `start` resets
            // the chain anyway.
            Some(b) if b.roi == request.roi && b.step >= anchor && b.step < request.start => {
                b.step + 1
            }
            _ => anchor,
        };
        Ok((resume..request.end)
            .map(|step| StepPlan {
                step,
                chain: step + 1 < request.end
                    && self.map.entry(step + 1, var).kind == StepKind::Residual,
                output: step >= request.start,
            })
            .collect())
    }

    /// Reconstruct every step of `request`, collecting the results.
    pub fn retrieve_steps(&mut self, request: &ArchiveRequest) -> Result<Vec<StepRetrieval>> {
        let mut out = Vec::with_capacity(request.end.saturating_sub(request.start));
        self.retrieve_steps_streaming_events(request, |_| {}, |s| out.push(s))?;
        Ok(out)
    }

    /// Reconstruct every step of `request`, streaming progress: the output
    /// decodes' own [`StreamEvent::Region`] / [`StreamEvent::LevelReconstructed`]
    /// events are forwarded as they land, one
    /// [`StreamEvent::StepReconstructed`] fires per completed output step,
    /// and each reconstruction is handed to `on_step`.
    ///
    /// State commits per completed step: on failure the reader (chain cache
    /// and byte accounting) is exactly as after the last successful step,
    /// and already-emitted reconstructions remain valid.
    pub fn retrieve_steps_streaming_events(
        &mut self,
        request: &ArchiveRequest,
        mut on_event: impl FnMut(StreamEvent),
        mut on_step: impl FnMut(StepRetrieval),
    ) -> Result<ArchiveOutcome> {
        self.retrieve_steps_impl(request, &mut on_event, &mut on_step)
    }

    fn retrieve_steps_impl(
        &mut self,
        request: &ArchiveRequest,
        on_event: &mut dyn FnMut(StreamEvent),
        on_step: &mut dyn FnMut(StepRetrieval),
    ) -> Result<ArchiveOutcome> {
        let schedule = self.step_schedule(request)?;
        let var = request.variable;
        let metrics = crate::obs::archive_metrics();
        let mut span = ipc_telemetry::span("archive", "retrieve_steps")
            .arg("variable", var as u64)
            .arg("start", request.start as u64)
            .arg("end", request.end as u64)
            .arg("scheduled", schedule.len() as u64);
        let reference = RetrievalRequest::ErrorBound(self.map.reference_bound);
        let first = schedule.first().expect("validated range is non-empty");
        // Resuming mid-chain starts from the cached base; a fresh chain
        // starts at a keyframe and needs none.
        let mut prev: Option<Arc<ArrayD<f64>>> =
            if first.step > self.map.chain_anchor(var, request.start) {
                metrics.chain_reuse.incr();
                self.bases[var].as_ref().map(|b| Arc::clone(&b.data))
            } else {
                None
            };
        // Every scheduled step's decodes' reads, in archive order, a step's
        // decodes on one unit per level: one fetch for the window, grouped
        // across level and step boundaries and read as the steps reach
        // them. Decode `d` is the `d`-th listed here, the order the loop
        // below runs them in.
        let (mut decodes, mut first) = (Vec::new(), 0);
        for plan in &schedule {
            let reads = step_reads(&self.map, plan, request)?;
            decodes.extend(reads.into_iter().map(|reads| (first, reads)));
            first += self.map.container(plan.step, var).levels.len();
        }
        let mut fetch = RequestFetch::new(Arc::clone(&self.source), &decodes);
        let mut decode = 0usize;
        let steps_in_request = request.end - request.start;
        let mut steps_done = 0usize;
        let mut bytes_request = 0usize;
        for plan in schedule {
            let step_started = ipc_telemetry::now_nanos();
            let entry = *self.map.entry(plan.step, var);
            let cmap = Arc::clone(self.map.container(plan.step, var));
            let mut bytes_step = 0usize;
            let [output_decode, chain_decode] = step_decodes(&plan, request, reference);

            // Output decode at the requested fidelity, streaming inner events.
            let output = if let Some(fidelity) = output_decode {
                let mut dec = ProgressiveDecoder::lent(Arc::clone(&cmap));
                let lent = Some((&mut fetch, decode));
                decode += 1;
                let r = dec.retrieve_scoped(fidelity, request.roi, Some(&mut *on_event), lent)?;
                bytes_step += r.bytes_total;
                Some(r)
            } else {
                None
            };
            // Chain decode at the reference fidelity (fresh decoder, so the
            // loaded plane set matches the encoder's base derivation exactly
            // even when the output plan differs).
            let chain_delta = if let Some(fidelity) = chain_decode {
                let mut dec = ProgressiveDecoder::lent(Arc::clone(&cmap));
                let lent = Some((&mut fetch, decode));
                decode += 1;
                let r = dec.retrieve_scoped(fidelity, request.roi, None, lent)?;
                bytes_step += r.bytes_total;
                Some(r.data)
            } else {
                None
            };

            // All loads for this step succeeded — compose, commit, emit. A
            // shared step composes once: its output *is* the chain base.
            let output = match output {
                Some(r) => Some((compose(entry.kind, prev.as_deref(), r.data)?, r.error_bound)),
                None => None,
            };
            if plan.chain {
                let base = Arc::new(match chain_delta {
                    Some(delta) => compose(entry.kind, prev.as_deref(), delta)?,
                    None => {
                        let (data, _) = output.as_ref().expect("a shared step has an output");
                        data.clone()
                    }
                });
                self.bases[var] = Some(ChainBase {
                    step: plan.step,
                    roi: request.roi,
                    data: Arc::clone(&base),
                });
                prev = Some(base);
            }
            self.bytes_total += bytes_step;
            bytes_request += bytes_step;
            match entry.kind {
                StepKind::Keyframe => metrics.keyframes.incr(),
                StepKind::Residual => metrics.residuals.incr(),
            }
            metrics.bytes.add(bytes_step as u64);
            metrics
                .step_ns
                .record(ipc_telemetry::now_nanos().saturating_sub(step_started));
            if let Some((data, error_bound)) = output {
                steps_done += 1;
                metrics.steps.incr();
                on_event(StreamEvent::StepReconstructed(StepProgress {
                    variable: var,
                    step: plan.step,
                    kind: entry.kind,
                    steps_done,
                    steps_in_request,
                    bytes_step,
                    bytes_total: self.bytes_total,
                    error_bound,
                }));
                on_step(StepRetrieval {
                    step: plan.step,
                    kind: entry.kind,
                    data,
                    bytes_step,
                    error_bound,
                });
            }
        }
        span.add_arg("bytes", bytes_request as u64);
        drop(span);
        Ok(ArchiveOutcome {
            steps: steps_done,
            bytes_this_request: bytes_request,
            bytes_total: self.bytes_total,
        })
    }
}

/// Compose a decoded delta with the chain base according to the step kind:
/// a keyframe's delta is the field, a residual's is added onto the base (in
/// place; a floating-point sum does not depend on its operands' order, so
/// this is [`add_fields`]' `base + delta` bit for bit).
fn compose(
    kind: StepKind,
    prev: Option<&ArrayD<f64>>,
    mut delta: ArrayD<f64>,
) -> Result<ArrayD<f64>> {
    if kind == StepKind::Residual {
        let base = prev.ok_or(IpcompError::CorruptContainer(
            "residual step without a chain base",
        ))?;
        if base.shape() != delta.shape() {
            return Err(IpcompError::CorruptContainer(
                "chain base shape disagrees with step",
            ));
        }
        for (d, b) in delta.as_mut_slice().iter_mut().zip(base.as_slice()) {
            *d += b;
        }
    }
    Ok(delta)
}

/// The fidelities of the decodes a scheduled step runs, `[output, chain]`:
/// the output decode at the requested fidelity, and a chain decode at the
/// reference fidelity unless the output decode already is one (when the
/// requested fidelity *is* the reference fidelity, one decode serves both).
fn step_decodes(
    plan: &StepPlan,
    request: &ArchiveRequest,
    reference: RetrievalRequest,
) -> [Option<RetrievalRequest>; 2] {
    let shared = plan.chain && plan.output && request.fidelity == reference;
    let chain = plan.chain && !shared;
    [
        plan.output.then_some(request.fidelity),
        chain.then_some(reference),
    ]
}

/// The reads of each decode one scheduled step runs against its embedded
/// container ([`step_decodes`], in that order), in archive-absolute offsets.
/// Every decode is planned through the same [`plan_request`] dispatch its
/// decoder plans with, fresh (nothing pre-loaded) and under the request's
/// window.
fn step_reads(
    map: &ArchiveMap,
    plan: &StepPlan,
    request: &ArchiveRequest,
) -> Result<Vec<Vec<ChunkRead>>> {
    let cmap = map.container(plan.step, request.variable);
    let reference = RetrievalRequest::ErrorBound(map.reference_bound);
    let base = map.entry(plan.step, request.variable).offset;
    let mut decodes = Vec::new();
    for fidelity in step_decodes(plan, request, reference).into_iter().flatten() {
        let mut reads = plan_request(cmap, &[], fidelity, request.roi)?.reads;
        for read in &mut reads {
            read.range.offset += base;
        }
        decodes.push(reads);
    }
    Ok(decodes)
}

/// The byte ranges one scheduled step contributes to an archive plan.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ArchiveStepRanges {
    /// The archive step these ranges decode.
    pub step: usize,
    /// Chunk ranges in archive-absolute offsets, payload order.
    pub ranges: Vec<ByteRange>,
}

/// An [`ArchiveRequest`] lowered to byte ranges: the union of each scheduled
/// step's per-container plan (chain steps at the reference fidelity, output
/// steps at the requested fidelity, one shared plan when they coincide),
/// shifted to archive-absolute offsets.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ArchiveRangePlan {
    /// Per scheduled step, in chain order.
    pub steps: Vec<ArchiveStepRanges>,
}

impl ArchiveRangePlan {
    /// Total payload bytes the plan fetches.
    pub fn payload_bytes(&self) -> usize {
        self.steps
            .iter()
            .flat_map(|s| &s.ranges)
            .map(|r| r.len)
            .sum()
    }

    /// Number of per-chunk requests without coalescing.
    pub fn request_count(&self) -> usize {
        self.steps.iter().map(|s| s.ranges.len()).sum()
    }

    /// All ranges of the plan, step order.
    pub fn ranges(&self) -> Vec<ByteRange> {
        self.steps.iter().flat_map(|s| s.ranges.clone()).collect()
    }
}

/// Lower `request` against `reader`'s schedule (which accounts for its
/// cached chain state) to the minimal chunk set: the keyframe-anchored chain
/// prefix priced at the reference fidelity, the output window at the
/// requested fidelity, and — when a step serves both — the union of the two
/// per-step plans, each composed with the existing per-container
/// plane/precinct lowering. These are the reads
/// [`ArchiveReader::retrieve_steps`] groups and fetches, so whatever it
/// serves is priced byte for byte, and whatever it refuses is refused here.
pub fn plan_archive_request(
    reader: &ArchiveReader,
    request: &ArchiveRequest,
) -> Result<ArchiveRangePlan> {
    let map = reader.map();
    let mut steps = Vec::new();
    for plan in reader.step_schedule(request)? {
        let mut seen: HashSet<ByteRange> = HashSet::new();
        let ranges = step_reads(map, &plan, request)?
            .into_iter()
            .flatten()
            .map(|read| read.range)
            .filter(|range| seen.insert(*range))
            .collect();
        steps.push(ArchiveStepRanges {
            step: plan.step,
            ranges,
        });
    }
    Ok(ArchiveRangePlan { steps })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::compressor::compress;

    fn wave(shape: &Shape, t: f64) -> ArrayD<f64> {
        ArrayD::from_fn(shape.clone(), |c| {
            ((c[0] as f64 * 0.31) + t).sin() * 1.5
                + ((c[1] as f64 * 0.22) - 0.5 * t).cos()
                + c.get(2).map_or(0.0, |&z| z as f64 * 0.01)
        })
    }

    fn toy_archive(steps: usize, interval: usize) -> (Vec<ArrayD<f64>>, Vec<u8>, ArchiveConfig) {
        let shape = Shape::d3(12, 10, 8);
        let fields: Vec<ArrayD<f64>> = (0..steps).map(|t| wave(&shape, t as f64 * 0.15)).collect();
        let config = ArchiveConfig {
            keyframe_interval: interval,
            reference_bound: 1e-3,
            finest_bound: 1e-5,
            codec: Config::default(),
        };
        let mut builder = ArchiveBuilder::new(vec!["wave".into()], shape, config.clone()).unwrap();
        for f in &fields {
            builder.push_step(std::slice::from_ref(f)).unwrap();
        }
        (fields, builder.finish().unwrap(), config)
    }

    /// Reference composition from first principles: encode each step's
    /// keyframe/residual field as a standalone container with the public
    /// `compress`, decode with the public decoder, sum by hand.
    fn composition_reference(
        fields: &[ArrayD<f64>],
        config: &ArchiveConfig,
        request: RetrievalRequest,
    ) -> Vec<ArrayD<f64>> {
        super::composition_reference(fields, config, request).unwrap()
    }

    #[test]
    fn archive_roundtrip_is_bit_identical_to_composition() {
        let (fields, bytes, config) = toy_archive(7, 3);
        let request = RetrievalRequest::ErrorBound(1e-4);
        let reference = composition_reference(&fields, &config, request);
        let mut reader = ArchiveReader::open(Arc::new(MemorySource::new(bytes))).unwrap();
        let steps = reader
            .retrieve_steps(&ArchiveRequest::steps(0, 0..7, request))
            .unwrap();
        assert_eq!(steps.len(), 7);
        for (s, want) in steps.iter().zip(&reference) {
            assert_eq!(
                s.data.as_slice(),
                want.as_slice(),
                "step {} diverged from composition reference",
                s.step
            );
            assert!(s.error_bound <= 1e-4 * (1.0 + 1e-12));
        }
    }

    #[test]
    fn mid_range_request_decodes_chain_prefix_silently() {
        let (fields, bytes, config) = toy_archive(8, 4);
        let request = RetrievalRequest::ErrorBound(1e-3);
        let reference = composition_reference(&fields, &config, request);
        let mut reader = ArchiveReader::open(Arc::new(MemorySource::new(bytes))).unwrap();
        let mut seen = Vec::new();
        reader
            .retrieve_steps_streaming_events(
                &ArchiveRequest::steps(0, 6..8, request),
                |_| {},
                |s| seen.push(s),
            )
            .unwrap();
        // Only output steps are emitted, but they match the reference chain.
        assert_eq!(seen.iter().map(|s| s.step).collect::<Vec<_>>(), vec![6, 7]);
        for s in &seen {
            assert_eq!(s.data.as_slice(), reference[s.step].as_slice());
        }
    }

    #[test]
    fn sliding_window_reuses_cached_chain() {
        let (_, bytes, _) = toy_archive(8, 8);
        let request = RetrievalRequest::ErrorBound(1e-3);
        let mut reader = ArchiveReader::open(Arc::new(MemorySource::new(bytes.clone()))).unwrap();
        let first = reader
            .retrieve_steps(&ArchiveRequest::steps(0, 3..5, request))
            .unwrap();
        // Chain base sits at step 3 (step 4 is last and needs no successor).
        assert_eq!(reader.chain_cache_step(0), Some(3));
        let schedule = reader
            .step_schedule(&ArchiveRequest::steps(0, 4..6, request))
            .unwrap();
        assert_eq!(schedule.first().map(|p| p.step), Some(4));
        let second = reader
            .retrieve_steps(&ArchiveRequest::steps(0, 4..6, request))
            .unwrap();
        // The overlapping step decodes identically via the cached chain.
        let mut cold = ArchiveReader::open(Arc::new(MemorySource::new(bytes))).unwrap();
        let cold_steps = cold
            .retrieve_steps(&ArchiveRequest::steps(0, 4..6, request))
            .unwrap();
        assert_eq!(first[1].data.as_slice(), second[0].data.as_slice());
        for (a, b) in second.iter().zip(&cold_steps) {
            assert_eq!(a.data.as_slice(), b.data.as_slice());
        }
    }

    fn toy_roi_archive(steps: usize, interval: usize) -> Vec<u8> {
        let shape = Shape::d3(12, 10, 8);
        let config = ArchiveConfig {
            keyframe_interval: interval,
            reference_bound: 1e-3,
            finest_bound: 1e-5,
            codec: Config::with_precincts(&[6, 5, 4]),
        };
        let mut builder = ArchiveBuilder::new(vec!["wave".into()], shape.clone(), config).unwrap();
        for t in 0..steps {
            let f = wave(&shape, t as f64 * 0.15);
            builder.push_step(std::slice::from_ref(&f)).unwrap();
        }
        builder.finish().unwrap()
    }

    #[test]
    fn roi_retrieval_matches_crop_of_full() {
        let bytes = toy_roi_archive(6, 3);
        let request = RetrievalRequest::ErrorBound(1e-3);
        let mut full = ArchiveReader::open(Arc::new(MemorySource::new(bytes.clone()))).unwrap();
        let full_steps = full
            .retrieve_steps(&ArchiveRequest::steps(0, 2..6, request))
            .unwrap();
        let roi = RoiBox::new(&[3, 2, 1], &[9, 8, 6]);
        let mut scoped = ArchiveReader::open(Arc::new(MemorySource::new(bytes))).unwrap();
        let scoped_request = ArchiveRequest {
            variable: 0,
            start: 2,
            end: 6,
            fidelity: request,
            roi: Some(roi),
        };
        // Windowed steps forward their decoders' inner events like
        // full-domain steps do.
        let (mut regions, mut passes) = (0usize, 0usize);
        let mut roi_steps = Vec::new();
        scoped
            .retrieve_steps_streaming_events(
                &scoped_request,
                |e| match e {
                    StreamEvent::Region(_) => regions += 1,
                    StreamEvent::LevelReconstructed(_) => passes += 1,
                    StreamEvent::StepReconstructed(_) => {}
                },
                |s| roi_steps.push(s),
            )
            .unwrap();
        assert!(
            regions > 0 && passes > 0,
            "{regions} regions, {passes} passes"
        );
        for (f, r) in full_steps.iter().zip(&roi_steps) {
            let mut crop = Vec::new();
            for x in 3..9 {
                for y in 2..8 {
                    for z in 1..6 {
                        crop.push(*f.data.get(&[x, y, z]));
                    }
                }
            }
            assert_eq!(r.data.as_slice(), &crop[..], "step {}", f.step);
        }
    }

    #[test]
    fn failed_step_load_rolls_back_exactly() {
        use std::sync::atomic::{AtomicU64, Ordering};

        /// Fails every read once `trip` requests have been served.
        struct TripSource {
            inner: MemorySource,
            served: AtomicU64,
            trip: AtomicU64,
        }
        impl TripSource {
            fn new(bytes: Vec<u8>, trip: u64) -> Self {
                Self {
                    inner: MemorySource::new(bytes),
                    served: AtomicU64::new(0),
                    trip: AtomicU64::new(trip),
                }
            }
            fn heal(&self) {
                self.trip.store(u64::MAX, Ordering::SeqCst);
            }
        }
        impl ChunkSource for TripSource {
            fn len(&self) -> u64 {
                self.inner.len()
            }
            fn read_ranges(&self, ranges: &[ByteRange]) -> Result<Vec<crate::source::Bytes>> {
                if self.served.fetch_add(1, Ordering::SeqCst) >= self.trip.load(Ordering::SeqCst) {
                    return Err(IpcompError::Io("injected fault".into()));
                }
                self.inner.read_ranges(ranges)
            }
        }

        let (_, bytes, _) = toy_archive(8, 8);
        let request = ArchiveRequest::steps(0, 0..8, RetrievalRequest::ErrorBound(1e-3));
        // Count requests of a clean full run — one per fetch group of the
        // window — then trip partway through the retrieval (always past map
        // parsing, so open itself succeeds).
        let clean_src = Arc::new(TripSource::new(bytes.clone(), u64::MAX));
        let mut clean =
            ArchiveReader::open(Arc::clone(&clean_src) as Arc<dyn ChunkSource>).unwrap();
        let open_reqs = clean_src.served.load(Ordering::SeqCst);
        let want = clean.retrieve_steps(&request).unwrap();
        let total = clean_src.served.load(Ordering::SeqCst);
        let span = total - open_reqs;
        assert!(span >= 3, "retrieval must issue several requests");

        for trip in [
            open_reqs + span / 3,
            open_reqs + span / 2,
            open_reqs + 2 * span / 3,
        ] {
            let src = Arc::new(TripSource::new(bytes.clone(), trip));
            let mut reader = ArchiveReader::open(Arc::clone(&src) as Arc<dyn ChunkSource>).unwrap();
            let bytes_before_fail = reader.bytes_loaded();
            let cache_before_fail = reader.chain_cache_step(0);
            // The trip lands on a later group's fetch: the steps whose
            // groups came in before it are committed, the rest fail.
            assert!(reader.retrieve_steps(&request).is_err(), "trip={trip}");
            // State either advanced whole steps or stayed put — never a
            // partial step.
            assert!(reader.bytes_loaded() >= bytes_before_fail);
            let _ = cache_before_fail;
            // Heal the source and retry: the surviving chain state must
            // produce bit-identical reconstructions.
            src.heal();
            let healed = reader.retrieve_steps(&request).unwrap();
            assert_eq!(healed.len(), want.len());
            for (a, b) in healed.iter().zip(&want) {
                assert_eq!(a.data.as_slice(), b.data.as_slice(), "trip={trip}");
            }
        }
    }

    #[test]
    fn archive_map_rejects_malformed_framing() {
        let (_, bytes, _) = toy_archive(3, 2);
        // v2 container bytes are not an archive.
        let field = wave(&Shape::d3(8, 8, 8), 0.0);
        let v2 = compress(&field, 1e-4, &Config::default())
            .unwrap()
            .to_bytes();
        assert!(ArchiveMap::open(&MemorySource::new(v2)).is_err());
        // Truncations anywhere in the metadata prefix fail cleanly.
        for cut in [0, 3, 9, 20, 40, 60] {
            let t = bytes[..cut.min(bytes.len())].to_vec();
            assert!(
                ArchiveMap::open(&MemorySource::new(t)).is_err(),
                "cut={cut}"
            );
        }
        // A directory entry pointing past the end fails validation.
        let map = ArchiveMap::open(&MemorySource::new(bytes.clone())).unwrap();
        let mut corrupt = bytes.clone();
        let dir_at = directory_at(&map);
        corrupt[dir_at + 1..dir_at + 9].copy_from_slice(&u64::MAX.to_le_bytes());
        assert!(ArchiveMap::open(&MemorySource::new(corrupt)).is_err());
        // Steps must alternate per the directory, step 0 keyframe enforced.
        let mut bad_kind = bytes;
        bad_kind[dir_at] = StepKind::Residual.id();
        assert!(ArchiveMap::open(&MemorySource::new(bad_kind)).is_err());
    }

    /// Offset of the first directory entry of `bytes`: its prefix less the
    /// 17-byte entries and the hoisted copies (one container front, its
    /// `base_bytes`, per entry).
    fn directory_at(map: &ArchiveMap) -> usize {
        let maps =
            (0..map.num_steps()).flat_map(|s| (0..map.variables().len()).map(move |v| (s, v)));
        let hoisted: usize = maps
            .clone()
            .map(|(s, v)| map.container(s, v).base_bytes())
            .sum();
        map.meta_len() as usize - hoisted - maps.count() * 17
    }

    /// Two directory entries naming one embedded container are refused
    /// before any hoisted copy is read: entries must tile the payload, so a
    /// small file cannot stand for more containers than it holds.
    #[test]
    fn aliased_directory_entries_are_refused() {
        let (_, bytes, _) = toy_archive(2, 1);
        let map = ArchiveMap::open(&MemorySource::new(bytes.clone())).unwrap();
        let dir_at = directory_at(&map);
        // Step 1's (offset, len) := step 0's.
        let mut aliased = bytes;
        aliased.copy_within(dir_at + 1..dir_at + 17, dir_at + 18);
        assert!(matches!(
            ArchiveMap::open(&MemorySource::new(aliased)),
            Err(IpcompError::CorruptContainer(
                "archive entries do not tile the payload"
            ))
        ));
    }

    #[test]
    fn degenerate_interval_one_archive_matches_independent_containers() {
        let (fields, bytes, config) = toy_archive(4, 1);
        let map = ArchiveMap::open(&MemorySource::new(bytes.clone())).unwrap();
        for (s, field) in fields.iter().enumerate() {
            assert_eq!(map.entry(s, 0).kind, StepKind::Keyframe);
            let independent = compress(field, config.finest_bound, &config.codec)
                .unwrap()
                .to_bytes();
            let e = map.entry(s, 0);
            assert_eq!(
                &bytes[e.offset as usize..(e.offset + e.len) as usize],
                &independent[..],
                "keyframe step {s} must embed the independent container byte-exactly"
            );
        }
    }

    #[test]
    fn multi_variable_chains_are_independent() {
        let shape = Shape::d3(10, 8, 6);
        let config = ArchiveConfig {
            keyframe_interval: 4,
            reference_bound: 1e-3,
            finest_bound: 1e-5,
            codec: Config::default(),
        };
        let a: Vec<ArrayD<f64>> = (0..5).map(|t| wave(&shape, t as f64 * 0.1)).collect();
        let b: Vec<ArrayD<f64>> = (0..5).map(|t| wave(&shape, 2.0 + t as f64 * 0.2)).collect();
        let mut builder =
            ArchiveBuilder::new(vec!["a".into(), "b".into()], shape.clone(), config.clone())
                .unwrap();
        for t in 0..5 {
            builder.push_step(&[a[t].clone(), b[t].clone()]).unwrap();
        }
        let bytes = builder.finish().unwrap();
        let req = RetrievalRequest::ErrorBound(1e-4);
        let ref_a = composition_reference(&a, &config, req);
        let ref_b = composition_reference(&b, &config, req);
        let mut reader = ArchiveReader::open(Arc::new(MemorySource::new(bytes))).unwrap();
        assert_eq!(
            reader.map().variables(),
            &["a".to_string(), "b".to_string()]
        );
        let got_b = reader
            .retrieve_steps(&ArchiveRequest::steps(1, 0..5, req))
            .unwrap();
        let got_a = reader
            .retrieve_steps(&ArchiveRequest::steps(0, 0..5, req))
            .unwrap();
        for t in 0..5 {
            assert_eq!(got_a[t].data.as_slice(), ref_a[t].as_slice());
            assert_eq!(got_b[t].data.as_slice(), ref_b[t].as_slice());
        }
    }
}
