//! Draco-class triangle-mesh codec.
//!
//! Table 2 compresses the per-frame untextured mesh with Google Draco
//! (397.7 KB → 42.1 KB). This codec implements the same ingredient list:
//!
//! 1. **Position quantization** to a configurable bit depth over the mesh
//!    bounds (Draco's `qp`, default 14 bits).
//! 2. **Connectivity by region growing**: faces are attached one at a time
//!    across the active boundary, so most vertices need *no index at all*
//!    — they are numbered implicitly in discovery order (the core trick of
//!    Edgebreaker/Touma-Gotsman-style coders).
//! 3. **Parallelogram prediction**: a newly attached vertex is predicted
//!    from the known triangle across the shared edge; only the (small)
//!    residual is coded.
//! 4. **Context-modelled static rANS** ([`crate::rans`]), as in Draco's
//!    back end. Each traversal op is a skip flag and a new-vertex flag,
//!    both conditioned on the previous two ops; residuals and known-vertex
//!    back-references are bucketed LZMA-style into a 64-symbol slot (the
//!    back-reference slot conditioned on the previous one) plus uniform
//!    direct bits. Slots and flags are rANS-coded; direct bits and the
//!    few seed-vertex fields go to a raw bit-packed side stream.
//!
//! Encoding takes two passes: the traversal collects `(context, symbol)`
//! pairs and raw bits, then the coder normalises one frequency table per
//! used context and rANS-encodes in reverse. Decoding is one forward
//! pass. Stream layout (`MCD2`): a 25-byte header (magic, bits, face
//! count, origin, step); then, for a non-empty mesh, the side stream's
//! byte length as a varint, the side stream (frequency tables, then raw
//! bits) and the rANS stream.
//!
//! Directed edges are found through a flat CSR index of each vertex's
//! outgoing half-edges in face order, so the first face holding an edge
//! wins, as the traversal requires.
//!
//! The codec is lossless in connectivity (up to vertex re-ordering;
//! unreferenced vertices are dropped) and lossy in positions by at most
//! half a quantization step per component.

use crate::primitives::{unzigzag, zigzag};
use crate::rans::{BitReader, BitWriter, ModelDecoder, ModelEncoder};
use holo_math::Vec3;
use holo_mesh::trimesh::TriMesh;
use holo_runtime::ser::{ByteReader, DecodeError};

/// Codec parameters.
#[derive(Debug, Clone, Copy)]
pub struct MeshCodecConfig {
    /// Position quantization bits per component (Draco default: 14).
    pub position_bits: u32,
}

impl Default for MeshCodecConfig {
    fn default() -> Self {
        Self { position_bits: 14 }
    }
}

const MAGIC: u32 = 0x4D43_4432; // "MCD2"

// Traversal ops, and the rANS contexts that code them. An op history
// `h` is the last two ops as a base-3 number (0..9).
const OP_SKIP: usize = 0;
const OP_NEW: usize = 1;
const OP_KNOWN: usize = 2;
/// Skip flag, by op history.
const CTX_SKIP: usize = 0;
/// New-vertex flag, by op history.
const CTX_IS_NEW: usize = 9;
/// Attach-residual slot, per component.
const CTX_RESIDUAL: usize = 18;
/// Back-reference slot, by the previous back-reference slot.
const CTX_BACKREF: usize = 21;
const CONTEXTS: usize = CTX_BACKREF + 64;

fn is_flag(ctx: usize) -> bool {
    ctx < CTX_RESIDUAL
}

/// Split `value` into the LZMA-style bucket slot (< 64) and the count
/// and value of its direct bits: small values cost few bits, large ones
/// grow logarithmically.
#[inline]
fn bucket(value: u32) -> (u32, u32, u32) {
    if value < 4 {
        return (value, 0, 0);
    }
    let bits = 31 - value.leading_zeros();
    let slot = (bits << 1) | ((value >> (bits - 1)) & 1);
    let direct = bits - 1;
    (slot, direct, value - ((2 | (slot & 1)) << direct))
}

/// Inverse of [`bucket`]: the value of `slot` with its direct bits read
/// from `raw`.
#[inline]
fn unbucket(slot: u32, raw: &mut BitReader<'_>) -> Result<u32, DecodeError> {
    if slot < 4 {
        return Ok(slot);
    }
    let direct = (slot >> 1) - 1;
    Ok(((2 | (slot & 1)) << direct) + raw.read(direct)?)
}

/// A bucketed value entirely in raw bits (seed vertices: a handful per
/// component, not worth a table).
fn write_raw_bucketed(raw: &mut BitWriter, value: u32) {
    let (slot, direct, rest) = bucket(value);
    raw.write(slot, 6);
    raw.write(rest, direct);
}

fn read_raw_bucketed(raw: &mut BitReader<'_>) -> Result<u32, DecodeError> {
    let slot = raw.read(6)?;
    unbucket(slot, raw)
}

type QPos = [i32; 3];

fn quantize_positions(mesh: &TriMesh, bits: u32) -> (Vec<QPos>, Vec3, f32) {
    let bounds = mesh.bounds();
    let (origin, step) = if mesh.vertices.is_empty() {
        (Vec3::ZERO, 1.0)
    } else {
        let longest = bounds.longest_side().max(1e-9);
        (bounds.min, longest / ((1u64 << bits) - 1) as f32)
    };
    let q = mesh
        .vertices
        .iter()
        .map(|v| {
            let r = (*v - origin) / step;
            [r.x.round() as i32, r.y.round() as i32, r.z.round() as i32]
        })
        .collect();
    (q, origin, step)
}

/// Directed-edge index in CSR form: the outgoing half-edges of each
/// vertex, in face order. The first entry matching `(u, v)` is the
/// first face that wrote the edge; duplicate directed edges
/// (non-manifold) are reached via seeding.
struct EdgeIndex {
    offsets: Vec<u32>,
    /// `(v, face, third vertex)` per half-edge `u → v`.
    edges: Vec<(u32, u32, u32)>,
}

impl EdgeIndex {
    fn new(mesh: &TriMesh) -> Self {
        let mut offsets = vec![0u32; mesh.vertices.len() + 1];
        for f in &mesh.faces {
            for &a in f {
                offsets[a as usize + 1] += 1;
            }
        }
        for i in 1..offsets.len() {
            offsets[i] += offsets[i - 1];
        }
        let mut fill = offsets.clone();
        let mut edges = vec![(0, 0, 0); mesh.faces.len() * 3];
        for (fi, f) in mesh.faces.iter().enumerate() {
            for k in 0..3 {
                let a = f[k] as usize;
                edges[fill[a] as usize] = (f[(k + 1) % 3], fi as u32, f[(k + 2) % 3]);
                fill[a] += 1;
            }
        }
        Self { offsets, edges }
    }

    /// `(face, third vertex)` of the first face holding edge `u → v`.
    #[inline]
    fn get(&self, u: u32, v: u32) -> Option<(u32, u32)> {
        let range = self.offsets[u as usize] as usize..self.offsets[u as usize + 1] as usize;
        self.edges[range].iter().find(|e| e.0 == v).map(|e| (e.1, e.2))
    }
}

/// Encode a mesh. Unreferenced vertices are not preserved.
pub fn encode_mesh(mesh: &TriMesh, cfg: &MeshCodecConfig) -> Vec<u8> {
    encode_mesh_with_permutation(mesh, cfg).0
}

/// Like [`encode_mesh`], additionally returning the vertex permutation:
/// `perm[k]` is the index in `mesh.vertices` of the vertex the decoder
/// will emit at position `k` (discovery order). Temporal coding needs it
/// to compute deltas against the receiver's reordered reference.
pub fn encode_mesh_with_permutation(mesh: &TriMesh, cfg: &MeshCodecConfig) -> (Vec<u8>, Vec<u32>) {
    if !holo_trace::enabled() {
        return encode_mesh_inner(mesh, cfg);
    }
    let start = std::time::Instant::now();
    let out = encode_mesh_inner(mesh, cfg);
    holo_trace::histogram_wall("compress.mesh.encode_ms", start.elapsed().as_secs_f64() * 1e3);
    // Raw baseline: 12 bytes/vertex position + 12 bytes/face of indices.
    let raw = mesh.vertices.len() * 12 + mesh.faces.len() * 12;
    holo_trace::histogram("compress.mesh.ratio", out.0.len() as f64 / raw.max(1) as f64);
    holo_trace::counter("compress.mesh.bytes_out", out.0.len() as u64);
    out
}

fn encode_mesh_inner(mesh: &TriMesh, cfg: &MeshCodecConfig) -> (Vec<u8>, Vec<u32>) {
    let bits = cfg.position_bits.clamp(4, 20);
    let (qpos, origin, step) = quantize_positions(mesh, bits);

    // Header (uncoded): magic, bits, face count, origin, step.
    let mut out = Vec::new();
    out.extend_from_slice(&MAGIC.to_le_bytes());
    out.push(bits as u8);
    out.extend_from_slice(&(mesh.faces.len() as u32).to_le_bytes());
    for c in [origin.x, origin.y, origin.z, step] {
        out.extend_from_slice(&c.to_le_bytes());
    }

    let mut order: Vec<u32> = Vec::with_capacity(mesh.vertices.len());
    if mesh.faces.is_empty() {
        return (out, order);
    }

    // Pass one: traverse, collecting (context, symbol) pairs and the
    // raw side stream.
    let edges = EdgeIndex::new(mesh);
    let mut model = ModelEncoder::new(CONTEXTS);
    let mut raw = BitWriter::new();
    let mut visited = vec![false; mesh.faces.len()];
    let mut faces_left = mesh.faces.len();
    let mut disc: Vec<Option<u32>> = vec![None; mesh.vertices.len()];
    let mut next_disc = 0u32;
    let mut last_abs: QPos = [0, 0, 0];
    let mut history = 0usize;
    let mut last_backref = 0usize;
    // Stack entries: (u, v, opp) — find the face containing directed edge
    // (u, v); `opp` supports parallelogram prediction.
    let mut stack: Vec<(u32, u32, u32)> = Vec::new();

    'components: for seed_face in 0..mesh.faces.len() {
        if visited[seed_face] {
            continue;
        }
        // Start a component: emit the seed triangle's vertices.
        visited[seed_face] = true;
        faces_left -= 1;
        let f = mesh.faces[seed_face];
        for &v in &f {
            match disc[v as usize] {
                Some(d) => {
                    raw.write(1, 1);
                    write_raw_bucketed(&mut raw, next_disc - 1 - d);
                }
                None => {
                    raw.write(0, 1);
                    let q = qpos[v as usize];
                    for k in 0..3 {
                        write_raw_bucketed(&mut raw, zigzag(q[k] - last_abs[k]));
                    }
                    last_abs = q;
                    disc[v as usize] = Some(next_disc);
                    order.push(v);
                    next_disc += 1;
                }
            }
        }
        let (s0, s1, s2) = (f[0], f[1], f[2]);
        stack.push((s1, s0, s2));
        stack.push((s2, s1, s0));
        stack.push((s0, s2, s1));

        while let Some((u, v, opp)) = stack.pop() {
            // Once every face is out, the ops left are all skips the
            // decoder never needs.
            if faces_left == 0 {
                break 'components;
            }
            let (fi, c) = match edges.get(u, v) {
                Some((fi, c)) if !visited[fi as usize] => (fi, c),
                _ => {
                    model.put(CTX_SKIP + history, 1);
                    history = (history * 3 + OP_SKIP) % 9;
                    continue;
                }
            };
            model.put(CTX_SKIP + history, 0);
            visited[fi as usize] = true;
            faces_left -= 1;
            match disc[c as usize] {
                Some(d) => {
                    model.put(CTX_IS_NEW + history, 0);
                    history = (history * 3 + OP_KNOWN) % 9;
                    let (slot, direct, rest) = bucket(next_disc - 1 - d);
                    model.put(CTX_BACKREF + last_backref, slot);
                    raw.write(rest, direct);
                    last_backref = slot as usize;
                }
                None => {
                    model.put(CTX_IS_NEW + history, 1);
                    history = (history * 3 + OP_NEW) % 9;
                    let (qu, qv, qo) = (qpos[u as usize], qpos[v as usize], qpos[opp as usize]);
                    let q = qpos[c as usize];
                    for k in 0..3 {
                        let (slot, direct, rest) = bucket(zigzag(q[k] - (qu[k] + qv[k] - qo[k])));
                        model.put(CTX_RESIDUAL + k, slot);
                        raw.write(rest, direct);
                    }
                    disc[c as usize] = Some(next_disc);
                    order.push(c);
                    next_disc += 1;
                }
            }
            stack.push((c, v, u));
            stack.push((u, c, v));
        }
    }

    // Pass two: tables at the head of the side stream, then rANS.
    let mut side = BitWriter::new();
    let symbols = model.finish(is_flag, &mut side);
    side.append(&raw);
    let side = side.finish();
    crate::primitives::write_varint(&mut out, side.len() as u32);
    out.extend_from_slice(&side);
    out.extend_from_slice(&symbols);
    (out, order)
}

/// Decode a mesh produced by [`encode_mesh`]. Vertices come back in
/// discovery order; faces keep their original winding.
///
/// Hostile-input contract: never panics (all header parsing is
/// bounds-checked, residual arithmetic wraps instead of overflowing),
/// and never allocates beyond what the coded bytes actually pay for —
/// a truncated or zero-padded stream is caught by the rANS decoder's
/// exhaustion check instead of spinning to a 100M-face declared count.
/// Malformed frequency tables, a final rANS state other than the
/// initial one, and unread raw bits are all typed errors.
pub fn decode_mesh(data: &[u8]) -> Result<TriMesh, DecodeError> {
    if !holo_trace::enabled() {
        return decode_mesh_inner(data);
    }
    let start = std::time::Instant::now();
    let out = decode_mesh_inner(data);
    holo_trace::histogram_wall("compress.mesh.decode_ms", start.elapsed().as_secs_f64() * 1e3);
    out
}

/// Most faces one coded byte can legitimately produce. Every non-seed
/// face costs at least three rANS symbols (skip flag, new-vertex flag,
/// one slot), each at least `log2(SCALE / MAX_FREQ)` ≈ 0.0227 bits
/// under the frequency cap the decoder enforces, so ~117 faces/byte is
/// the ceiling (seed faces cost ≥ 3 raw bits); 128 adds margin without
/// admitting absurd declared counts.
const MAX_FACES_PER_BYTE: usize = 128;

fn decode_mesh_inner(data: &[u8]) -> Result<TriMesh, DecodeError> {
    let mut r = ByteReader::new(data);
    r.expect_magic(MAGIC)?;
    let _bits = r.u8()?;
    let face_count = r.u32_le()? as usize;
    let fl = [r.f32_le()?, r.f32_le()?, r.f32_le()?, r.f32_le()?];
    let (origin, step) = (Vec3::new(fl[0], fl[1], fl[2]), fl[3]);
    if !step.is_finite() || step <= 0.0 {
        return Err(DecodeError::corrupt("mesh header", "invalid quantization step"));
    }

    let mut mesh = TriMesh::new();
    if face_count == 0 {
        return Ok(mesh);
    }
    // Guard against absurd declared counts on corrupted input: more
    // faces than the coded bytes could possibly encode.
    let face_cap = data.len().saturating_mul(MAX_FACES_PER_BYTE).min(100_000_000);
    if face_count > face_cap {
        return Err(DecodeError::LimitExceeded {
            what: "mesh faces",
            requested: face_count as u64,
            limit: face_cap as u64,
        });
    }

    let side_len = r.varint()? as usize;
    let mut raw = BitReader::new(r.take(side_len)?);
    let mut dec = ModelDecoder::new(CONTEXTS, is_flag, &mut raw, r.rest())?;
    let mut qverts: Vec<QPos> = Vec::new();
    let mut last_abs: QPos = [0, 0, 0];
    let mut history = 0usize;
    let mut last_backref = 0usize;
    let mut stack: Vec<(u32, u32, u32)> = Vec::new();

    while mesh.faces.len() < face_count {
        if dec.exhausted() {
            // A valid stream always carries enough coded bytes for its
            // declared face count; running dry means truncation (or a
            // zero-fed tail after corruption).
            return Err(DecodeError::Truncated { needed: face_count, available: mesh.faces.len() });
        }
        let Some((u, v, opp)) = stack.pop() else {
            // Seed triangle.
            let mut ids = [0u32; 3];
            for slot in &mut ids {
                if raw.read(1)? == 1 {
                    let back = read_raw_bucketed(&mut raw)?;
                    let n = qverts.len() as u32;
                    if back >= n {
                        return Err(DecodeError::corrupt("mesh", "seed backref out of range"));
                    }
                    *slot = n - 1 - back;
                } else {
                    // Wrapping: hostile residuals may not fit i32 sums;
                    // the reconstructed positions are garbage either
                    // way, but the decoder must not panic in debug.
                    for c in &mut last_abs {
                        *c = c.wrapping_add(unzigzag(read_raw_bucketed(&mut raw)?));
                    }
                    *slot = qverts.len() as u32;
                    qverts.push(last_abs);
                }
            }
            mesh.faces.push(ids);
            let (s0, s1, s2) = (ids[0], ids[1], ids[2]);
            stack.push((s1, s0, s2));
            stack.push((s2, s1, s0));
            stack.push((s0, s2, s1));
            continue;
        };
        if dec.flag(CTX_SKIP + history)? {
            history = (history * 3 + OP_SKIP) % 9;
            continue;
        }
        let c = if dec.flag(CTX_IS_NEW + history)? {
            history = (history * 3 + OP_NEW) % 9;
            let (qu, qv, qo) = (qverts[u as usize], qverts[v as usize], qverts[opp as usize]);
            let mut q = [0i32; 3];
            for k in 0..3 {
                let slot = dec.symbol(CTX_RESIDUAL + k)?;
                let r = unzigzag(unbucket(slot, &mut raw)?);
                q[k] = qu[k].wrapping_add(qv[k]).wrapping_sub(qo[k]).wrapping_add(r);
            }
            let id = qverts.len() as u32;
            qverts.push(q);
            id
        } else {
            history = (history * 3 + OP_KNOWN) % 9;
            let slot = dec.symbol(CTX_BACKREF + last_backref)?;
            last_backref = slot as usize;
            let back = unbucket(slot, &mut raw)?;
            let n = qverts.len() as u32;
            if back >= n {
                return Err(DecodeError::corrupt("mesh", "backref out of range"));
            }
            n - 1 - back
        };
        mesh.faces.push([u, v, c]);
        stack.push((c, v, u));
        stack.push((u, c, v));
    }
    dec.finish()?;
    raw.finish()?;

    mesh.vertices = qverts
        .into_iter()
        .map(|q| origin + Vec3::new(q[0] as f32, q[1] as f32, q[2] as f32) * step)
        .collect();
    mesh.compute_normals();
    Ok(mesh)
}

#[cfg(test)]
mod tests {
    use super::*;
    use holo_math::Pcg32;
    use holo_mesh::sdf::SdfSphere;
    use holo_mesh::sparse::sparse_extract;

    fn assert_roundtrip(mesh: &TriMesh, bits: u32) -> TriMesh {
        let cfg = MeshCodecConfig { position_bits: bits };
        let data = encode_mesh(mesh, &cfg);
        let decoded = decode_mesh(&data).expect("decode");
        assert_eq!(decoded.face_count(), mesh.face_count(), "face count");
        assert!(decoded.validate().is_ok());
        // Geometric fidelity: every original vertex has a decoded vertex
        // within half a quantization cell (per component -> sqrt(3)/2 of a
        // step in distance), and vice versa.
        let step = mesh.bounds().longest_side().max(1e-9) / ((1u64 << bits) - 1) as f32;
        let tol = step * 0.9; // sqrt(3)/2 plus float slack
        let grid = holo_mesh::grid::PointGrid::auto(decoded.vertices.clone());
        for v in &mesh.vertices {
            // Unreferenced original vertices are legitimately dropped.
            let referenced = mesh.faces.iter().flatten().any(|&i| mesh.vertices[i as usize] == *v);
            if !referenced {
                continue;
            }
            let d = grid.nearest_distance(*v);
            assert!(d <= tol, "original vertex {v:?} has no decoded twin (d={d}, step={step})");
        }
        let grid2 = holo_mesh::grid::PointGrid::auto(mesh.vertices.clone());
        for v in &decoded.vertices {
            let d = grid2.nearest_distance(*v);
            assert!(d <= tol, "decoded vertex {v:?} has no original twin (d={d})");
        }
        // Surface area agreement.
        let (a, b) = (mesh.surface_area(), decoded.surface_area());
        assert!((a - b).abs() / a.max(1e-9) < 0.05, "area {a} vs {b}");
        decoded
    }

    fn sphere_mesh() -> TriMesh {
        TriMesh::uv_sphere(Vec3::new(0.3, -0.2, 1.0), 0.9, 16, 24)
    }

    #[test]
    fn sphere_roundtrip() {
        assert_roundtrip(&sphere_mesh(), 14);
    }

    #[test]
    fn quantization_error_bounded() {
        let mesh = sphere_mesh();
        let cfg = MeshCodecConfig { position_bits: 12 };
        let data = encode_mesh(&mesh, &cfg);
        let decoded = decode_mesh(&data).unwrap();
        let step = mesh.bounds().longest_side() / ((1u64 << 12) - 1) as f32;
        // Every decoded vertex must be within one quantization cell of
        // some original vertex.
        for v in &decoded.vertices {
            let nearest = mesh.vertices.iter().map(|o| (*o - *v).length()).fold(f32::INFINITY, f32::min);
            assert!(nearest <= step * 1.8, "vertex error {nearest} vs step {step}");
        }
    }

    #[test]
    fn marching_cubes_mesh_roundtrip() {
        let s = SdfSphere { center: Vec3::ZERO, radius: 1.0 };
        let mesh = sparse_extract(&s, 32, 0.0);
        assert_roundtrip(&mesh, 14);
    }

    #[test]
    fn compression_ratio_draco_class() {
        // The Table 2 scenario needs ~10x on smooth organic meshes.
        let s = SdfSphere { center: Vec3::ZERO, radius: 1.0 };
        let mesh = sparse_extract(&s, 64, 0.0);
        let raw = mesh.raw_size_bytes();
        let coded = encode_mesh(&mesh, &MeshCodecConfig::default()).len();
        let ratio = raw as f64 / coded as f64;
        assert!(ratio > 5.0, "ratio {ratio:.1} ({raw} -> {coded})");
    }

    #[test]
    fn empty_mesh() {
        let m = TriMesh::new();
        let data = encode_mesh(&m, &MeshCodecConfig::default());
        let d = decode_mesh(&data).unwrap();
        assert_eq!(d.face_count(), 0);
        assert_eq!(d.vertex_count(), 0);
    }

    #[test]
    fn single_triangle() {
        let mut m = TriMesh::new();
        m.vertices = vec![Vec3::ZERO, Vec3::X, Vec3::Y];
        m.faces = vec![[0, 1, 2]];
        let decoded = assert_roundtrip(&m, 14);
        assert_eq!(decoded.vertex_count(), 3);
    }

    #[test]
    fn disconnected_components() {
        let mut m = sphere_mesh();
        let other = TriMesh::uv_sphere(Vec3::new(5.0, 0.0, 0.0), 0.5, 8, 12);
        m.append(&other);
        assert_roundtrip(&m, 14);
    }

    #[test]
    fn open_surface_with_boundary() {
        // A grid patch: has boundary edges everywhere.
        let mut m = TriMesh::new();
        let n = 10u32;
        for y in 0..=n {
            for x in 0..=n {
                m.vertices.push(Vec3::new(x as f32 * 0.1, y as f32 * 0.1, (x as f32 * 0.37).sin() * 0.05));
            }
        }
        for y in 0..n {
            for x in 0..n {
                let i = y * (n + 1) + x;
                m.faces.push([i, i + 1, i + n + 2]);
                m.faces.push([i, i + n + 2, i + n + 1]);
            }
        }
        assert_roundtrip(&m, 14);
    }

    #[test]
    fn nonmanifold_edge_survives() {
        // Three triangles sharing one edge.
        let mut m = TriMesh::new();
        m.vertices = vec![
            Vec3::ZERO,
            Vec3::new(0.0, 1.0, 0.0),
            Vec3::new(1.0, 0.0, 0.0),
            Vec3::new(-1.0, 0.0, 0.0),
            Vec3::new(0.0, 0.0, 1.0),
        ];
        m.faces = vec![[0, 1, 2], [0, 1, 3], [0, 1, 4]];
        let data = encode_mesh(&m, &MeshCodecConfig::default());
        let decoded = decode_mesh(&data).unwrap();
        assert_eq!(decoded.face_count(), 3);
    }

    #[test]
    fn unreferenced_vertices_dropped() {
        let mut m = TriMesh::new();
        m.vertices = vec![Vec3::ZERO, Vec3::X, Vec3::Y, Vec3::splat(9.0)];
        m.faces = vec![[0, 1, 2]];
        let data = encode_mesh(&m, &MeshCodecConfig::default());
        let decoded = decode_mesh(&data).unwrap();
        assert_eq!(decoded.vertex_count(), 3);
    }

    #[test]
    fn corrupted_header_is_error() {
        assert!(decode_mesh(&[1, 2, 3]).is_err());
        let mesh = sphere_mesh();
        let mut data = encode_mesh(&mesh, &MeshCodecConfig::default());
        data[0] ^= 0xFF;
        assert!(decode_mesh(&data).is_err());
    }

    /// Split a coded mesh into (header, side stream, rANS stream).
    fn sections(data: &[u8]) -> (Vec<u8>, Vec<u8>, Vec<u8>) {
        const HEADER: usize = 25;
        let (side_len, n) = crate::primitives::read_varint(&data[HEADER..]).unwrap();
        let side_end = HEADER + n + side_len as usize;
        (data[..HEADER].to_vec(), data[HEADER + n..side_end].to_vec(), data[side_end..].to_vec())
    }

    fn assemble(header: &[u8], side: &[u8], symbols: &[u8]) -> Vec<u8> {
        let mut out = header.to_vec();
        crate::primitives::write_varint(&mut out, side.len() as u32);
        out.extend_from_slice(side);
        out.extend_from_slice(symbols);
        out
    }

    #[test]
    fn encoding_is_deterministic_and_sections_reassemble() {
        let mesh = sphere_mesh();
        let a = encode_mesh(&mesh, &MeshCodecConfig::default());
        assert_eq!(a, encode_mesh(&mesh, &MeshCodecConfig::default()));
        let (header, side, symbols) = sections(&a);
        assert_eq!(assemble(&header, &side, &symbols), a);
    }

    #[test]
    fn every_truncation_is_an_error() {
        // The rANS stream must end exactly on the initial state, so no
        // proper prefix of a coded mesh decodes.
        let mut m = TriMesh::uv_sphere(Vec3::ZERO, 1.0, 5, 7);
        m.append(&TriMesh::uv_sphere(Vec3::X * 3.0, 0.5, 4, 5));
        let data = encode_mesh(&m, &MeshCodecConfig::default());
        decode_mesh(&data).unwrap();
        for cut in 0..data.len() {
            assert!(decode_mesh(&data[..cut]).is_err(), "truncation to {cut}/{} decoded", data.len());
        }
    }

    #[test]
    fn trailing_rans_bytes_are_rejected() {
        let mut data = encode_mesh(&sphere_mesh(), &MeshCodecConfig::default());
        data.push(0);
        assert!(matches!(decode_mesh(&data), Err(DecodeError::Corrupt { .. })));
    }

    #[test]
    fn unconsumed_raw_bits_are_rejected() {
        let data = encode_mesh(&sphere_mesh(), &MeshCodecConfig::default());
        let (header, mut side, symbols) = sections(&data);
        side.push(0);
        match decode_mesh(&assemble(&header, &side, &symbols)) {
            Err(DecodeError::Corrupt { detail, .. }) => assert!(detail.contains("unconsumed raw bits")),
            other => panic!("expected unconsumed raw bits, got {other:?}"),
        }
    }

    #[test]
    fn a_wrong_final_state_is_rejected() {
        // Bump the flushed state: still normalised, still the right
        // length, but decoding cannot end where encoding began.
        let data = encode_mesh(&sphere_mesh(), &MeshCodecConfig::default());
        let (header, side, mut symbols) = sections(&data);
        let state = u32::from_le_bytes(symbols[..4].try_into().unwrap());
        symbols[..4].copy_from_slice(&(state ^ 0x40_0000).to_le_bytes());
        assert!(decode_mesh(&assemble(&header, &side, &symbols)).is_err());
    }

    #[test]
    fn declared_face_count_is_bounded_by_the_byte_budget() {
        let mut data = encode_mesh(&sphere_mesh(), &MeshCodecConfig::default());
        let forged = (data.len() * MAX_FACES_PER_BYTE + 1) as u32;
        data[5..9].copy_from_slice(&forged.to_le_bytes());
        assert!(matches!(decode_mesh(&data), Err(DecodeError::LimitExceeded { .. })));
    }

    #[test]
    fn faces_per_byte_ceiling_holds_for_a_maximally_predictable_mesh() {
        // A straight triangle strip on the quantization lattice (12 bits
        // over a 4095-unit extent: a step of exactly one unit). Every
        // attach is a new vertex that parallelogram prediction hits
        // exactly, and the op stream repeats with period two — about as
        // compressible as the traversal gets (~42 faces/byte). It must
        // stay under the decoder's faces-per-byte cap.
        let n = 4095u32;
        let mut m = TriMesh::new();
        for x in 0..=n {
            m.vertices.push(Vec3::new(x as f32, 0.0, 0.0));
            m.vertices.push(Vec3::new(x as f32, 1.0, 0.0));
        }
        for x in 0..n {
            let (a, b) = (2 * x, 2 * x + 1);
            m.faces.push([a, b, a + 2]);
            m.faces.push([a + 2, b, b + 2]);
        }
        let data = encode_mesh(&m, &MeshCodecConfig { position_bits: 12 });
        assert_eq!(decode_mesh(&data).unwrap().face_count(), m.face_count());
        let per_byte = m.face_count() as f64 / data.len() as f64;
        assert!(per_byte < MAX_FACES_PER_BYTE as f64, "{per_byte:.1} faces/byte");
    }

    #[test]
    fn random_soup_roundtrips() {
        // Random triangle soup (worst case for prediction, still correct).
        let mut rng = Pcg32::new(7);
        let mut m = TriMesh::new();
        for _ in 0..200 {
            m.vertices.push(Vec3::new(
                rng.range_f32(-1.0, 1.0),
                rng.range_f32(-1.0, 1.0),
                rng.range_f32(-1.0, 1.0),
            ));
        }
        for _ in 0..300 {
            let a = rng.range_u32(200);
            let mut b = rng.range_u32(200);
            let mut c = rng.range_u32(200);
            if b == a {
                b = (b + 1) % 200;
            }
            if c == a || c == b {
                c = (c + 2) % 200;
            }
            m.faces.push([a, b, c]);
        }
        let data = encode_mesh(&m, &MeshCodecConfig::default());
        let decoded = decode_mesh(&data).unwrap();
        assert_eq!(decoded.face_count(), m.face_count());
    }
}
