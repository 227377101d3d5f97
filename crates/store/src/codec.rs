//! Binary codecs for the pipeline's large intermediates.
//!
//! Every artifact the store holds is encoded with a small, explicit binary
//! format: a four-byte magic identifying the artifact kind, a format
//! version, then length-prefixed fields in little-endian order. Floats are
//! stored as IEEE-754 bit patterns so a decoded artifact is **bit-identical**
//! to the encoded one — the store must never perturb a cached pipeline's
//! output by a single ulp.
//!
//! Voxel data (one byte per voxel, long oxide runs) is chunked and
//! run-length encoded; image stacks (dense `f32` noise) are stored raw.
//! Decoders validate everything — magic, version, lengths, enum
//! discriminants, net indices — and return [`CodecError`] instead of
//! panicking: a corrupted blob must fall back to recompute, not abort the
//! run.

use hifi_circuit::{Device, DeviceId, Netlist, Polarity, TransistorClass, TransistorDims};
use hifi_extract::{
    ClassMeasurement, ExtractedDevice, Extraction, MeasurementConfidence, MeasurementReport,
};
use hifi_geometry::{Layer, LayerExtent, LayerStack};
use hifi_imaging::{DetectorKind, DriftTruth, ImageStack, SemImage};
use hifi_synth::MaterialVolume;
use hifi_units::Nanometers;

/// Why a blob failed to decode.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CodecError {
    /// The buffer ended before the field being read.
    Truncated {
        /// What was being decoded.
        what: &'static str,
    },
    /// The artifact magic did not match the expected kind.
    BadMagic {
        /// The kind the decoder expected.
        expected: &'static str,
    },
    /// The format version is not supported by this build.
    BadVersion {
        /// The version found in the header.
        found: u16,
    },
    /// A field held a value outside its domain (enum discriminant, net
    /// index, voxel byte, inconsistent length, …).
    Invalid {
        /// What was being decoded.
        what: &'static str,
    },
}

impl core::fmt::Display for CodecError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            CodecError::Truncated { what } => write!(f, "blob truncated while decoding {what}"),
            CodecError::BadMagic { expected } => write!(f, "blob is not a {expected} artifact"),
            CodecError::BadVersion { found } => write!(f, "unsupported artifact version {found}"),
            CodecError::Invalid { what } => write!(f, "invalid {what} in blob"),
        }
    }
}

impl std::error::Error for CodecError {}

/// Current format version shared by all artifact kinds.
///
/// v2: measurement reports carry [`MeasurementConfidence`] provenance.
/// Old blobs fail with [`CodecError::BadVersion`], which the store treats
/// as a cache miss — never fatal.
const VERSION: u16 = 2;

/// Raw voxel bytes per RLE chunk (chunking bounds decoder allocations and
/// keeps a flipped length byte from requesting gigabytes).
const CHUNK: usize = 256 * 1024;

// ---------------------------------------------------------------------------
// Little-endian writer / reader
// ---------------------------------------------------------------------------

/// Append-only little-endian byte writer.
#[derive(Debug, Default)]
struct Writer {
    buf: Vec<u8>,
}

impl Writer {
    fn magic(kind: &[u8; 4]) -> Self {
        let mut w = Writer::default();
        w.buf.extend_from_slice(kind);
        w.u16(VERSION);
        w
    }

    fn u8(&mut self, v: u8) {
        self.buf.push(v);
    }

    fn u16(&mut self, v: u16) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    fn u32(&mut self, v: u32) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    fn u64(&mut self, v: u64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    fn i32(&mut self, v: i32) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    fn f64(&mut self, v: f64) {
        self.u64(v.to_bits());
    }

    fn f32(&mut self, v: f32) {
        self.u32(v.to_bits());
    }

    fn str(&mut self, s: &str) {
        self.u32(s.len() as u32);
        self.buf.extend_from_slice(s.as_bytes());
    }

    fn into_bytes(self) -> Vec<u8> {
        self.buf
    }
}

/// Bounds-checked little-endian reader.
struct Reader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Reader<'a> {
    fn new(buf: &'a [u8], kind: &'static str, magic: &[u8; 4]) -> Result<Self, CodecError> {
        let mut r = Reader { buf, pos: 0 };
        let found = r.take(4, kind)?;
        if found != magic {
            return Err(CodecError::BadMagic { expected: kind });
        }
        let version = r.u16(kind)?;
        if version != VERSION {
            return Err(CodecError::BadVersion { found: version });
        }
        Ok(r)
    }

    fn take(&mut self, n: usize, what: &'static str) -> Result<&'a [u8], CodecError> {
        let end = self
            .pos
            .checked_add(n)
            .filter(|&e| e <= self.buf.len())
            .ok_or(CodecError::Truncated { what })?;
        let out = &self.buf[self.pos..end];
        self.pos = end;
        Ok(out)
    }

    fn u8(&mut self, what: &'static str) -> Result<u8, CodecError> {
        Ok(self.take(1, what)?[0])
    }

    fn u16(&mut self, what: &'static str) -> Result<u16, CodecError> {
        Ok(u16::from_le_bytes(self.take(2, what)?.try_into().unwrap()))
    }

    fn u32(&mut self, what: &'static str) -> Result<u32, CodecError> {
        Ok(u32::from_le_bytes(self.take(4, what)?.try_into().unwrap()))
    }

    fn u64(&mut self, what: &'static str) -> Result<u64, CodecError> {
        Ok(u64::from_le_bytes(self.take(8, what)?.try_into().unwrap()))
    }

    fn i32(&mut self, what: &'static str) -> Result<i32, CodecError> {
        Ok(i32::from_le_bytes(self.take(4, what)?.try_into().unwrap()))
    }

    fn f64(&mut self, what: &'static str) -> Result<f64, CodecError> {
        Ok(f64::from_bits(self.u64(what)?))
    }

    fn usize(&mut self, what: &'static str) -> Result<usize, CodecError> {
        usize::try_from(self.u64(what)?).map_err(|_| CodecError::Invalid { what })
    }

    fn str(&mut self, what: &'static str) -> Result<String, CodecError> {
        let len = self.u32(what)? as usize;
        let bytes = self.take(len, what)?;
        String::from_utf8(bytes.to_vec()).map_err(|_| CodecError::Invalid { what })
    }

    /// A count that will drive a `Vec::with_capacity`: bounded by the bytes
    /// actually remaining (each element is ≥ `min_bytes`), so a corrupted
    /// length cannot request an absurd allocation.
    fn count(&mut self, min_bytes: usize, what: &'static str) -> Result<usize, CodecError> {
        let n = self.u32(what)? as usize;
        if n.saturating_mul(min_bytes) > self.buf.len() - self.pos {
            return Err(CodecError::Invalid { what });
        }
        Ok(n)
    }

    fn finish(&self, what: &'static str) -> Result<(), CodecError> {
        if self.pos == self.buf.len() {
            Ok(())
        } else {
            Err(CodecError::Invalid { what })
        }
    }
}

// ---------------------------------------------------------------------------
// MaterialVolume (chunked RLE)
// ---------------------------------------------------------------------------

const VOLUME_MAGIC: &[u8; 4] = b"HVOL";

/// Encodes a material volume: geometry, layer stack, then the voxel bytes
/// in `CHUNK`-sized runs of simple `(count, value)` RLE — oxide dominates
/// every region, so this typically compresses >10×.
pub fn encode_volume(v: &MaterialVolume) -> Vec<u8> {
    let mut w = Writer::magic(VOLUME_MAGIC);
    let (nx, ny, nz) = v.dims();
    w.u64(nx as u64);
    w.u64(ny as u64);
    w.u64(nz as u64);
    w.f64(v.voxel_nm());
    for layer in Layer::ALL {
        let e = v.stack().extent(layer);
        w.f64(e.z_bottom.value());
        w.f64(e.z_top.value());
    }
    let data = v.raw_voxels();
    let chunks = data.chunks(CHUNK);
    w.u32(chunks.len() as u32);
    for chunk in chunks {
        w.u32(chunk.len() as u32);
        // RLE pairs for this chunk: (run length, voxel byte).
        let mut pairs: Vec<(u32, u8)> = Vec::new();
        for &b in chunk {
            match pairs.last_mut() {
                Some((run, val)) if *val == b && *run < u32::MAX => *run += 1,
                _ => pairs.push((1, b)),
            }
        }
        w.u32(pairs.len() as u32);
        for (run, val) in pairs {
            w.u32(run);
            w.u8(val);
        }
    }
    w.into_bytes()
}

/// Decodes [`encode_volume`] output.
///
/// # Errors
///
/// Returns [`CodecError`] on any structural damage: bad magic or version,
/// truncation, layer extents that do not form a valid stack, RLE runs that
/// do not add up to the declared chunk length, or voxel bytes outside the
/// material alphabet.
pub fn decode_volume(buf: &[u8]) -> Result<MaterialVolume, CodecError> {
    let mut r = Reader::new(buf, "MaterialVolume", VOLUME_MAGIC)?;
    let nx = r.usize("volume nx")?;
    let ny = r.usize("volume ny")?;
    let nz = r.usize("volume nz")?;
    let voxel_nm = r.f64("volume voxel size")?;
    let mut extents = [LayerExtent {
        z_bottom: Nanometers(0.0),
        z_top: Nanometers(0.0),
    }; 7];
    let mut prev_top = f64::NEG_INFINITY;
    for e in &mut extents {
        let bottom = r.f64("layer extent")?;
        let top = r.f64("layer extent")?;
        // Re-validate the `LayerStack::from_extents` contract here: that
        // constructor panics on bad input, and a corrupted blob must not.
        if !(top >= bottom && bottom >= prev_top - 1e-9) {
            return Err(CodecError::Invalid {
                what: "layer stack extents",
            });
        }
        prev_top = top;
        *e = LayerExtent {
            z_bottom: Nanometers(bottom),
            z_top: Nanometers(top),
        };
    }
    let expected_len =
        nx.checked_mul(ny)
            .and_then(|p| p.checked_mul(nz))
            .ok_or(CodecError::Invalid {
                what: "volume dimensions",
            })?;
    let n_chunks = r.count(8, "volume chunk count")?;
    let mut data = Vec::with_capacity(expected_len.min(n_chunks.saturating_mul(CHUNK)));
    for _ in 0..n_chunks {
        let raw_len = r.u32("chunk length")? as usize;
        if raw_len > CHUNK || data.len() + raw_len > expected_len {
            return Err(CodecError::Invalid {
                what: "volume chunk length",
            });
        }
        let chunk_end = data.len() + raw_len;
        let n_pairs = r.count(5, "chunk pair count")?;
        // Each `(run: u32, value: u8)` pair is checked against what is left
        // of the chunk before it expands.
        for pair in r.take(n_pairs * 5, "rle run")?.chunks_exact(5) {
            let run = u32::from_le_bytes(pair[..4].try_into().unwrap()) as usize;
            if run > chunk_end - data.len() {
                return Err(CodecError::Invalid {
                    what: "rle run length",
                });
            }
            data.resize(data.len() + run, pair[4]);
        }
        if data.len() != chunk_end {
            return Err(CodecError::Invalid {
                what: "rle chunk total",
            });
        }
    }
    r.finish("volume trailing bytes")?;
    let stack = LayerStack::from_extents(extents);
    MaterialVolume::from_raw(nx, ny, nz, voxel_nm, stack, data).ok_or(CodecError::Invalid {
        what: "volume contents",
    })
}

// ---------------------------------------------------------------------------
// ImageStack, DriftTruth, alignment corrections
// ---------------------------------------------------------------------------

const STACK_MAGIC: &[u8; 4] = b"HSTK";

fn detector_byte(d: DetectorKind) -> u8 {
    match d {
        DetectorKind::Se => 0,
        DetectorKind::Bse => 1,
    }
}

fn detector_from(b: u8) -> Result<DetectorKind, CodecError> {
    match b {
        0 => Ok(DetectorKind::Se),
        1 => Ok(DetectorKind::Bse),
        _ => Err(CodecError::Invalid { what: "detector" }),
    }
}

fn write_stack(w: &mut Writer, stack: &ImageStack) {
    w.f64(stack.pixel_nm());
    w.u64(stack.slice_voxels() as u64);
    w.u8(detector_byte(stack.detector()));
    w.u64(stack.frame_margin_px() as u64);
    w.u32(stack.len() as u32);
    for s in stack.slices() {
        let (ny, nz) = s.dims();
        w.u32(ny as u32);
        w.u32(nz as u32);
        for &p in s.pixels() {
            w.f32(p);
        }
    }
}

/// Reads the stack that [`write_stack`] wrote; shared by the acquisition
/// and processed decoders.
fn read_stack(r: &mut Reader<'_>) -> Result<ImageStack, CodecError> {
    let pixel_nm = r.f64("stack pixel size")?;
    let slice_voxels = r.usize("stack slice thickness")?;
    let detector = detector_from(r.u8("stack detector")?)?;
    let margin = r.usize("stack frame margin")?;
    let n = r.count(8, "stack slice count")?;
    let mut slices = Vec::with_capacity(n);
    for _ in 0..n {
        let ny = r.u32("slice width")? as usize;
        let nz = r.u32("slice height")? as usize;
        let n_bytes = ny
            .checked_mul(nz)
            .and_then(|n_px| n_px.checked_mul(4))
            .ok_or(CodecError::Invalid {
                what: "slice dimensions",
            })?;
        let bytes = r.take(n_bytes, "slice pixels")?;
        let mut img = SemImage::filled(ny, nz, 0.0);
        for (dst, src) in img.pixels_mut().iter_mut().zip(bytes.chunks_exact(4)) {
            *dst = f32::from_bits(u32::from_le_bytes(src.try_into().unwrap()));
        }
        slices.push(img);
    }
    Ok(ImageStack::from_slices(slices, pixel_nm, slice_voxels, detector).with_frame_margin(margin))
}

fn write_shift_list(w: &mut Writer, shifts: &[(i32, i32)]) {
    w.u32(shifts.len() as u32);
    for &(dy, dz) in shifts {
        w.i32(dy);
        w.i32(dz);
    }
}

fn read_shift_list(r: &mut Reader<'_>, what: &'static str) -> Result<Vec<(i32, i32)>, CodecError> {
    let n = r.count(8, what)?;
    let mut out = Vec::with_capacity(n);
    for _ in 0..n {
        out.push((r.i32(what)?, r.i32(what)?));
    }
    Ok(out)
}

/// Encodes an acquisition result: the raw stack, its ground-truth
/// drift/brightness artefacts (needed by fidelity telemetry on cache
/// hits), and the indices of slices that were interpolated after
/// exhausting re-acquisition retries (so a cache hit keeps the degraded
/// provenance a recomputation would rediscover).
pub fn encode_acquisition(stack: &ImageStack, truth: &DriftTruth, degraded: &[usize]) -> Vec<u8> {
    let mut w = Writer::magic(STACK_MAGIC);
    write_stack(&mut w, stack);
    write_shift_list(&mut w, &truth.shifts);
    w.u32(truth.brightness.len() as u32);
    for &b in &truth.brightness {
        w.f64(b);
    }
    w.u32(degraded.len() as u32);
    for &d in degraded {
        w.u64(d as u64);
    }
    w.into_bytes()
}

/// Decodes [`encode_acquisition`] output.
///
/// # Errors
///
/// Returns [`CodecError`] on structural damage (see [`decode_volume`]).
pub fn decode_acquisition(buf: &[u8]) -> Result<(ImageStack, DriftTruth, Vec<usize>), CodecError> {
    let mut r = Reader::new(buf, "acquisition", STACK_MAGIC)?;
    let stack = read_stack(&mut r)?;
    let shifts = read_shift_list(&mut r, "drift shifts")?;
    let n = r.count(8, "brightness count")?;
    let mut brightness = Vec::with_capacity(n);
    for _ in 0..n {
        brightness.push(r.f64("brightness offset")?);
    }
    let n_degraded = r.count(8, "degraded slice count")?;
    let mut degraded = Vec::with_capacity(n_degraded);
    for _ in 0..n_degraded {
        let idx = r.usize("degraded slice index")?;
        if idx >= stack.len() {
            return Err(CodecError::Invalid {
                what: "degraded slice index",
            });
        }
        degraded.push(idx);
    }
    r.finish("acquisition trailing bytes")?;
    Ok((stack, DriftTruth { shifts, brightness }, degraded))
}

const PROCESSED_MAGIC: &[u8; 4] = b"HPRC";

/// Encodes a post-processed (normalized + aligned + denoised) stack along
/// with the per-slice alignment corrections applied to it.
pub fn encode_processed(stack: &ImageStack, corrections: &[(i32, i32)]) -> Vec<u8> {
    let mut w = Writer::magic(PROCESSED_MAGIC);
    write_stack(&mut w, stack);
    write_shift_list(&mut w, corrections);
    w.into_bytes()
}

/// Decodes [`encode_processed`] output.
///
/// # Errors
///
/// Returns [`CodecError`] on structural damage (see [`decode_volume`]).
pub fn decode_processed(buf: &[u8]) -> Result<(ImageStack, Vec<(i32, i32)>), CodecError> {
    let mut r = Reader::new(buf, "processed stack", PROCESSED_MAGIC)?;
    let stack = read_stack(&mut r)?;
    let corrections = read_shift_list(&mut r, "alignment corrections")?;
    r.finish("processed stack trailing bytes")?;
    Ok((stack, corrections))
}

// ---------------------------------------------------------------------------
// Extraction: netlist, device metadata, MeasurementReport
// ---------------------------------------------------------------------------

const EXTRACTION_MAGIC: &[u8; 4] = b"HEXT";

fn class_byte(c: TransistorClass) -> u8 {
    TransistorClass::ALL
        .iter()
        .position(|&x| x == c)
        .expect("class in ALL") as u8
}

fn class_from(b: u8) -> Result<TransistorClass, CodecError> {
    TransistorClass::ALL
        .get(b as usize)
        .copied()
        .ok_or(CodecError::Invalid {
            what: "transistor class",
        })
}

fn write_dims(w: &mut Writer, d: TransistorDims) {
    w.f64(d.width.value());
    w.f64(d.length.value());
}

fn read_dims(r: &mut Reader<'_>) -> Result<TransistorDims, CodecError> {
    let width = r.f64("dims width")?;
    let length = r.f64("dims length")?;
    if !(width > 0.0 && length > 0.0) {
        return Err(CodecError::Invalid {
            what: "transistor dimensions",
        });
    }
    Ok(TransistorDims::new(Nanometers(width), Nanometers(length)))
}

fn write_netlist(w: &mut Writer, nl: &Netlist) {
    w.str(nl.name());
    w.u32(nl.net_count() as u32);
    for i in 0..nl.net_count() {
        w.str(nl.net_name(hifi_circuit::NetId(i)));
    }
    w.u32(nl.device_count() as u32);
    for (_, d) in nl.devices() {
        match d {
            Device::Mosfet(m) => {
                w.u8(0);
                w.str(&m.name);
                w.u8(match m.polarity {
                    Polarity::Nmos => 0,
                    Polarity::Pmos => 1,
                });
                w.u8(class_byte(m.class));
                write_dims(w, m.dims);
                w.u32(m.gate.0 as u32);
                w.u32(m.source.0 as u32);
                w.u32(m.drain.0 as u32);
            }
            Device::Capacitor(c) => {
                w.u8(1);
                w.str(&c.name);
                w.f64(c.value.value());
                w.u32(c.a.0 as u32);
                w.u32(c.b.0 as u32);
            }
        }
    }
}

fn read_netlist(r: &mut Reader<'_>) -> Result<Netlist, CodecError> {
    let name = r.str("netlist name")?;
    let mut nl = Netlist::new(name);
    let n_nets = r.count(5, "net count")?;
    for i in 0..n_nets {
        let net_name = r.str("net name")?;
        let id = nl.add_net(net_name);
        // Duplicate names would silently renumber every later net.
        if id.0 != i {
            return Err(CodecError::Invalid {
                what: "duplicate net name",
            });
        }
    }
    let net = |raw: u32| -> Result<hifi_circuit::NetId, CodecError> {
        let idx = raw as usize;
        if idx < n_nets {
            Ok(hifi_circuit::NetId(idx))
        } else {
            Err(CodecError::Invalid {
                what: "net reference",
            })
        }
    };
    let n_devices = r.count(2, "device count")?;
    for _ in 0..n_devices {
        match r.u8("device tag")? {
            0 => {
                let dev_name = r.str("mosfet name")?;
                let polarity = match r.u8("polarity")? {
                    0 => Polarity::Nmos,
                    1 => Polarity::Pmos,
                    _ => return Err(CodecError::Invalid { what: "polarity" }),
                };
                let class = class_from(r.u8("mosfet class")?)?;
                let dims = read_dims(r)?;
                let gate = net(r.u32("gate net")?)?;
                let source = net(r.u32("source net")?)?;
                let drain = net(r.u32("drain net")?)?;
                nl.add_mosfet(dev_name, polarity, class, dims, gate, source, drain);
            }
            1 => {
                let dev_name = r.str("capacitor name")?;
                let value = r.f64("capacitance")?;
                let a = net(r.u32("capacitor net a")?)?;
                let b = net(r.u32("capacitor net b")?)?;
                nl.add_capacitor(dev_name, hifi_units::Femtofarads(value), a, b);
            }
            _ => return Err(CodecError::Invalid { what: "device tag" }),
        }
    }
    Ok(nl)
}

fn write_measurement(w: &mut Writer, m: &MeasurementReport) {
    w.u32(m.classes.len() as u32);
    for c in &m.classes {
        w.u8(class_byte(c.class));
        w.u64(c.count as u64);
        w.f64(c.mean_width.value());
        w.f64(c.mean_length.value());
        w.f64(c.width_spread.value());
        w.f64(c.length_spread.value());
    }
    w.u64(m.total_measurements as u64);
    w.u32(m.confidence.degraded_slices.len() as u32);
    for &s in &m.confidence.degraded_slices {
        w.u64(s as u64);
    }
    w.u64(m.confidence.total_slices as u64);
    w.f64(m.confidence.score);
}

fn read_measurement(r: &mut Reader<'_>) -> Result<MeasurementReport, CodecError> {
    let n = r.count(41, "measurement class count")?;
    let mut classes = Vec::with_capacity(n);
    for _ in 0..n {
        classes.push(ClassMeasurement {
            class: class_from(r.u8("measured class")?)?,
            count: r.usize("class device count")?,
            mean_width: Nanometers(r.f64("mean width")?),
            mean_length: Nanometers(r.f64("mean length")?),
            width_spread: Nanometers(r.f64("width spread")?),
            length_spread: Nanometers(r.f64("length spread")?),
        });
    }
    let total_measurements = r.usize("total measurements")?;
    let n_degraded = r.count(8, "degraded slice count")?;
    let mut degraded_slices = Vec::with_capacity(n_degraded);
    for _ in 0..n_degraded {
        degraded_slices.push(r.usize("degraded slice index")?);
    }
    let total_slices = r.usize("confidence slice total")?;
    let score = r.f64("confidence score")?;
    if degraded_slices.len() > total_slices || !(0.0..=1.0).contains(&score) {
        return Err(CodecError::Invalid {
            what: "measurement confidence",
        });
    }
    Ok(MeasurementReport {
        classes,
        total_measurements,
        confidence: MeasurementConfidence {
            degraded_slices,
            total_slices,
            score,
        },
    })
}

/// Encodes the extraction stage's full result: netlist, per-device
/// extraction metadata, grid geometry, and the measurement report derived
/// from it (so a cache hit restores the complete stage output).
pub fn encode_extraction(ex: &Extraction, measurement: &MeasurementReport) -> Vec<u8> {
    let mut w = Writer::magic(EXTRACTION_MAGIC);
    write_netlist(&mut w, &ex.netlist);
    w.u32(ex.devices.len() as u32);
    for d in &ex.devices {
        w.u32(d.device.0 as u32);
        write_dims(&mut w, d.dims);
        let (x0, y0, x1, y1) = d.channel_bbox;
        for v in [x0, y0, x1, y1] {
            w.u64(v as u64);
        }
        w.f64(d.gate_y_span_fraction);
        match d.class {
            None => w.u8(0xff),
            Some(c) => w.u8(class_byte(c)),
        }
    }
    w.u64(ex.nx as u64);
    w.u64(ex.ny as u64);
    w.f64(ex.voxel_nm);
    write_measurement(&mut w, measurement);
    w.into_bytes()
}

/// Decodes [`encode_extraction`] output.
///
/// # Errors
///
/// Returns [`CodecError`] on structural damage (see [`decode_volume`]).
pub fn decode_extraction(buf: &[u8]) -> Result<(Extraction, MeasurementReport), CodecError> {
    let mut r = Reader::new(buf, "extraction", EXTRACTION_MAGIC)?;
    let netlist = read_netlist(&mut r)?;
    let n = r.count(58, "extracted device count")?;
    let mut devices = Vec::with_capacity(n);
    for _ in 0..n {
        let id = r.u32("device id")? as usize;
        if id >= netlist.device_count() {
            return Err(CodecError::Invalid {
                what: "device reference",
            });
        }
        let dims = read_dims(&mut r)?;
        let mut bbox = [0usize; 4];
        for v in &mut bbox {
            *v = r.usize("channel bbox")?;
        }
        let gate_y_span_fraction = r.f64("gate span")?;
        let class = match r.u8("device class")? {
            0xff => None,
            b => Some(class_from(b)?),
        };
        devices.push(ExtractedDevice {
            device: DeviceId(id),
            dims,
            channel_bbox: (bbox[0], bbox[1], bbox[2], bbox[3]),
            gate_y_span_fraction,
            class,
        });
    }
    let nx = r.usize("extraction nx")?;
    let ny = r.usize("extraction ny")?;
    let voxel_nm = r.f64("extraction voxel size")?;
    let measurement = read_measurement(&mut r)?;
    r.finish("extraction trailing bytes")?;
    Ok((
        Extraction {
            netlist,
            devices,
            nx,
            ny,
            voxel_nm,
        },
        measurement,
    ))
}

#[cfg(test)]
mod tests {
    use super::*;
    use hifi_circuit::topology::SaTopologyKind;
    use hifi_synth::{generate_region, SaRegionSpec};

    fn small_volume() -> MaterialVolume {
        generate_region(&SaRegionSpec::new(SaTopologyKind::Classic).with_pairs(1)).voxelize()
    }

    #[test]
    fn volume_round_trips_bit_identically() {
        let v = small_volume();
        let blob = encode_volume(&v);
        let back = decode_volume(&blob).expect("decodes");
        assert_eq!(back, v);
        // RLE earns its keep on sparse volumes.
        assert!(
            blob.len() < v.len() / 2,
            "blob {} bytes for {} voxels",
            blob.len(),
            v.len()
        );
    }

    #[test]
    fn acquisition_round_trips_bit_identically() {
        let v = small_volume();
        let cfg = hifi_imaging::ImagingConfig {
            slice_voxels: 3,
            ..Default::default()
        };
        let (stack, truth) = hifi_imaging::acquire(&v, &cfg);
        let blob = encode_acquisition(&stack, &truth, &[1, 3]);
        let (s2, t2, degraded) = decode_acquisition(&blob).expect("decodes");
        assert_eq!(s2, stack);
        assert_eq!(t2, truth);
        assert_eq!(degraded, vec![1, 3]);
        assert_eq!(s2.frame_margin_px(), stack.frame_margin_px());
        // A degraded index past the stack length is structural damage.
        let bad = encode_acquisition(&stack, &truth, &[stack.len()]);
        assert!(matches!(
            decode_acquisition(&bad),
            Err(CodecError::Invalid { .. })
        ));
    }

    #[test]
    fn empty_stack_round_trips() {
        let stack = ImageStack::from_slices(Vec::new(), 5.0, 1, DetectorKind::Se);
        let truth = DriftTruth {
            shifts: Vec::new(),
            brightness: Vec::new(),
        };
        let (s2, t2, degraded) =
            decode_acquisition(&encode_acquisition(&stack, &truth, &[])).expect("decodes");
        assert!(s2.is_empty());
        assert_eq!(s2.detector(), DetectorKind::Se);
        assert!(t2.shifts.is_empty());
        assert!(degraded.is_empty());
        let (p, c) = decode_processed(&encode_processed(&stack, &[])).expect("decodes");
        assert!(p.is_empty() && c.is_empty());
    }

    /// Round-trips a netlist through the extraction blob, the one artifact
    /// that carries netlists, with no device metadata or measurements.
    fn netlist_round_trip(netlist: &Netlist) -> Netlist {
        let ex = Extraction {
            netlist: netlist.clone(),
            devices: Vec::new(),
            nx: 0,
            ny: 0,
            voxel_nm: 1.0,
        };
        let m = MeasurementReport {
            classes: Vec::new(),
            total_measurements: 0,
            confidence: MeasurementConfidence::full(),
        };
        decode_extraction(&encode_extraction(&ex, &m))
            .expect("decodes")
            .0
            .netlist
    }

    #[test]
    fn netlist_round_trips_including_capacitors() {
        let nl = hifi_circuit::topology::ocsa(Default::default()).into_netlist();
        assert_eq!(netlist_round_trip(&nl), nl);
    }

    #[test]
    fn zero_device_netlist_round_trips() {
        let mut nl = Netlist::new("empty");
        nl.add_net("BL");
        let back = netlist_round_trip(&nl);
        assert_eq!(back, nl);
        assert_eq!(back.device_count(), 0);
    }

    #[test]
    fn extraction_round_trips_with_measurement() {
        let v = small_volume();
        let ex = hifi_extract::extract(&v).expect("extracts");
        let m = hifi_extract::measure(&ex);
        let blob = encode_extraction(&ex, &m);
        let (ex2, m2) = decode_extraction(&blob).expect("decodes");
        assert_eq!(ex2.netlist, ex.netlist);
        assert_eq!(ex2.devices, ex.devices);
        assert_eq!((ex2.nx, ex2.ny), (ex.nx, ex.ny));
        assert_eq!(ex2.voxel_nm.to_bits(), ex.voxel_nm.to_bits());
        assert_eq!(m2, m);
    }

    #[test]
    fn wrong_magic_and_version_are_rejected() {
        let blob = encode_volume(&small_volume());
        assert!(matches!(
            decode_acquisition(&blob),
            Err(CodecError::BadMagic { .. })
        ));
        let mut vers = blob.clone();
        vers[4] = 99;
        assert!(matches!(
            decode_volume(&vers),
            Err(CodecError::BadVersion { found: 99 })
        ));
        assert!(matches!(
            decode_volume(&blob[..10]),
            Err(CodecError::Truncated { .. })
        ));
    }

    /// A slice declaring 2^31 × 2^31 pixels (and carrying no pixel bytes)
    /// overflows the slice's byte length. Both stack decoders must reject it
    /// as damage, not panic on the multiply (debug) or wrap it to an empty
    /// read and then fail to allocate the slice (release).
    #[test]
    fn huge_slice_dims_are_a_typed_error() {
        // Well formed but for its one slice, ending in `lists` empty lists
        // (drift shifts, brightness, degraded slices; or corrections).
        let blob = |magic, lists| {
            let mut w = Writer::magic(magic);
            w.f64(5.0);
            w.u64(1);
            w.u8(detector_byte(DetectorKind::Bse));
            w.u64(0);
            w.u32(1);
            w.u32(1 << 31);
            w.u32(1 << 31);
            for _ in 0..lists {
                w.u32(0);
            }
            w.into_bytes()
        };
        let want = Some(CodecError::Invalid {
            what: "slice dimensions",
        });
        assert_eq!(decode_acquisition(&blob(STACK_MAGIC, 3)).err(), want);
        assert_eq!(decode_processed(&blob(PROCESSED_MAGIC, 1)).err(), want);
    }

    /// Flip every byte of a small volume blob one at a time: decode must
    /// return an error or a (different or identical) volume — never panic.
    /// This is the codec half of the corruption contract; the store layer
    /// additionally checksums blobs so flips are caught before decode.
    #[test]
    fn single_byte_flips_never_panic() {
        let mut v = MaterialVolume::new(4, 3, 2, 5.0, hifi_geometry::LayerStack::default_dram());
        v.fill_box(0, 2, 0, 2, 0, 2, hifi_synth::Material::Metal1, true);
        let blob = encode_volume(&v);
        for i in 0..blob.len() {
            let mut bad = blob.clone();
            bad[i] ^= 0x41;
            let _ = decode_volume(&bad); // must not panic
        }
    }
}
