//! Per-vertex property storage and scalar globals with atomic operations.
//!
//! Every property vector is stored as `Vec<AtomicU64>` holding bit-encoded
//! [`Value`]s, so the same storage supports the real multithreaded CPU
//! backend (sequentially consistent atomics) and the single-threaded
//! architecture simulators.

use std::sync::atomic::{AtomicU64, Ordering};

use ugc_graphir::types::{ReduceOp, Type};

use crate::value::Value;

/// Index of a property vector within a [`PropertyStorage`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct PropId(pub usize);

/// One property vector.
struct PropArray {
    name: String,
    ty: Type,
    data: Vec<AtomicU64>,
}

/// All property vectors of a running program.
///
/// # Example
///
/// ```
/// use ugc_runtime::{PropertyStorage, Value};
/// use ugc_graphir::types::Type;
///
/// let mut props = PropertyStorage::new(4);
/// let parent = props.add("parent", Type::Vertex, Value::Int(-1));
/// assert_eq!(props.read(parent, 2), Value::Int(-1));
/// props.write(parent, 2, Value::Int(0));
/// assert_eq!(props.read(parent, 2), Value::Int(0));
/// ```
pub struct PropertyStorage {
    num_vertices: usize,
    arrays: Vec<PropArray>,
}

impl std::fmt::Debug for PropertyStorage {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("PropertyStorage")
            .field("num_vertices", &self.num_vertices)
            .field(
                "properties",
                &self
                    .arrays
                    .iter()
                    .map(|a| a.name.as_str())
                    .collect::<Vec<_>>(),
            )
            .finish()
    }
}

impl PropertyStorage {
    /// Creates storage for graphs of `num_vertices` vertices.
    pub fn new(num_vertices: usize) -> Self {
        PropertyStorage {
            num_vertices,
            arrays: Vec::new(),
        }
    }

    /// Number of vertices each vector covers.
    pub fn num_vertices(&self) -> usize {
        self.num_vertices
    }

    /// Adds a property initialized to `init` everywhere; returns its id.
    pub fn add(&mut self, name: impl Into<String>, ty: Type, init: Value) -> PropId {
        let bits = init.to_bits(ty);
        let data = (0..self.num_vertices)
            .map(|_| AtomicU64::new(bits))
            .collect();
        self.arrays.push(PropArray {
            name: name.into(),
            ty,
            data,
        });
        PropId(self.arrays.len() - 1)
    }

    /// Resolves a property id by name.
    pub fn id_of(&self, name: &str) -> Option<PropId> {
        self.arrays.iter().position(|a| a.name == name).map(PropId)
    }

    /// The element type of a property.
    pub fn ty(&self, id: PropId) -> Type {
        self.arrays[id.0].ty
    }

    /// The name of a property.
    pub fn name(&self, id: PropId) -> &str {
        &self.arrays[id.0].name
    }

    /// Number of declared properties.
    pub fn len(&self) -> usize {
        self.arrays.len()
    }

    /// Whether no properties are declared.
    pub fn is_empty(&self) -> bool {
        self.arrays.is_empty()
    }

    /// Element size in bytes as the simulators model it (4 bytes for
    /// int/vertex/float-as-float32 analogues would undercount; GraphIt uses
    /// 4-byte ints and floats, so simulators charge 4).
    pub fn elem_bytes(&self, _id: PropId) -> u32 {
        4
    }

    /// Plain read.
    #[inline]
    pub fn read(&self, id: PropId, idx: u32) -> Value {
        let a = &self.arrays[id.0];
        Value::from_bits(a.data[idx as usize].load(Ordering::Relaxed), a.ty)
    }

    /// Raw 64-bit cell read: the stored bit pattern, relaxed. Compiled
    /// kernels compare cells against precomputed constants ([`Self::bits_of`])
    /// without constructing a [`Value`].
    #[inline]
    pub fn read_bits(&self, id: PropId, idx: u32) -> u64 {
        self.arrays[id.0].data[idx as usize].load(Ordering::Relaxed)
    }

    /// The bit pattern `v` occupies in property `id`'s cells (the encoding
    /// [`Self::write`] would store).
    pub fn bits_of(&self, id: PropId, v: Value) -> u64 {
        v.to_bits(self.arrays[id.0].ty)
    }

    /// Raw 64-bit cell write, relaxed: the caller has already encoded the
    /// value the way [`Self::write`] would for this property's type.
    #[inline]
    pub fn write_bits(&self, id: PropId, idx: u32, bits: u64) {
        self.arrays[id.0].data[idx as usize].store(bits, Ordering::Relaxed);
    }

    /// Plain write.
    pub fn write(&self, id: PropId, idx: u32, v: Value) {
        let a = &self.arrays[id.0];
        a.data[idx as usize].store(v.to_bits(a.ty), Ordering::Relaxed);
    }

    /// Re-initializes every element of `id` to `v`. Large vectors are
    /// filled by the persistent pool.
    pub fn fill(&self, id: PropId, v: Value) {
        let a = &self.arrays[id.0];
        let bits = v.to_bits(a.ty);
        if a.data.len() >= PARALLEL_PROP_THRESHOLD {
            crate::pool::parallel_for(
                crate::pool::default_threads(),
                a.data.len(),
                PARALLEL_PROP_CHUNK,
                |_tid, range| {
                    for cell in &a.data[range] {
                        cell.store(bits, Ordering::Relaxed);
                    }
                },
            );
        } else {
            for cell in &a.data {
                cell.store(bits, Ordering::Relaxed);
            }
        }
    }

    /// Compare-and-swap; returns whether the swap happened.
    pub fn cas(&self, id: PropId, idx: u32, expected: Value, new: Value) -> bool {
        self.cas_as(id, idx, expected, new, self.arrays[id.0].ty)
    }

    /// [`Self::cas`] on a property whose type the caller passes, as
    /// [`Self::reduce_as`].
    #[inline(always)]
    pub fn cas_as(&self, id: PropId, idx: u32, expected: Value, new: Value, ty: Type) -> bool {
        self.arrays[id.0].data[idx as usize]
            .compare_exchange(
                expected.to_bits(ty),
                new.to_bits(ty),
                Ordering::SeqCst,
                Ordering::SeqCst,
            )
            .is_ok()
    }

    /// Atomic reduction; returns `(changed, old_value)`.
    ///
    /// `Min`/`Max` only store when strictly improving; `Sum` always stores
    /// and reports `changed` when the addend is non-zero; `Or` stores a
    /// boolean OR.
    pub fn reduce(&self, id: PropId, idx: u32, op: ReduceOp, v: Value) -> (bool, Value) {
        self.reduce_as(id, idx, op, v, self.arrays[id.0].ty)
    }

    /// [`Self::reduce`] of a property whose type the caller passes: a
    /// caller that knows the op and the type at compile time gets the
    /// reduction specialised to them.
    #[inline(always)]
    pub fn reduce_as(
        &self,
        id: PropId,
        idx: u32,
        op: ReduceOp,
        v: Value,
        ty: Type,
    ) -> (bool, Value) {
        let cell = &self.arrays[id.0].data[idx as usize];
        let mut cur = cell.load(Ordering::SeqCst);
        loop {
            let old = Value::from_bits(cur, ty);
            let (newv, changed) = apply_reduce(op, old, v, ty);
            if !changed {
                return (false, old);
            }
            match cell.compare_exchange_weak(
                cur,
                newv.to_bits(ty),
                Ordering::SeqCst,
                Ordering::SeqCst,
            ) {
                Ok(_) => return (true, old),
                Err(actual) => cur = actual,
            }
        }
    }

    /// Atomically adds `delta` to an int cell, wrapping: the `+=` of
    /// [`Self::reduce`] on an int property, for callers whose adds commute
    /// and that need neither the old value nor a change flag. Relaxed: the
    /// cell publishes no other data, and the pool's join orders every add
    /// before the cell is next read.
    #[inline]
    pub fn add_int(&self, id: PropId, idx: u32, delta: i64) {
        self.arrays[id.0].data[idx as usize].fetch_add(delta as u64, Ordering::Relaxed);
    }

    /// Non-atomic reduction (single-threaded backends); same result
    /// contract as [`PropertyStorage::reduce`].
    pub fn reduce_relaxed(&self, id: PropId, idx: u32, op: ReduceOp, v: Value) -> (bool, Value) {
        self.reduce_relaxed_as(id, idx, op, v, self.arrays[id.0].ty)
    }

    /// [`Self::reduce_relaxed`] of a property whose type the caller passes,
    /// as [`Self::reduce_as`].
    #[inline(always)]
    pub fn reduce_relaxed_as(
        &self,
        id: PropId,
        idx: u32,
        op: ReduceOp,
        v: Value,
        ty: Type,
    ) -> (bool, Value) {
        let cell = &self.arrays[id.0].data[idx as usize];
        let old = Value::from_bits(cell.load(Ordering::Relaxed), ty);
        let (newv, changed) = apply_reduce(op, old, v, ty);
        if changed {
            cell.store(newv.to_bits(ty), Ordering::Relaxed);
        }
        (changed, old)
    }

    /// Every property in declaration order as `(name, type, cells)`, each
    /// cell the bits [`Value::to_bits`] stored. The cells are moved out of
    /// their atomics in place: nothing is copied or allocated.
    pub(crate) fn into_columns(self) -> impl Iterator<Item = (String, Type, Vec<u64>)> {
        self.arrays.into_iter().map(|a| {
            let cells = a.data.into_iter().map(AtomicU64::into_inner).collect();
            (a.name, a.ty, cells)
        })
    }

    /// Snapshot of a whole property as values (used by validators). Large
    /// vectors are materialized by the persistent pool.
    pub fn snapshot(&self, id: PropId) -> Vec<Value> {
        let a = &self.arrays[id.0];
        if a.data.len() >= PARALLEL_PROP_THRESHOLD {
            let mut out = vec![Value::Int(0); a.data.len()];
            crate::pool::parallel_for_each_mut(
                crate::pool::default_threads(),
                &mut out,
                PARALLEL_PROP_CHUNK,
                |_tid, start, window| {
                    for (i, slot) in window.iter_mut().enumerate() {
                        *slot = Value::from_bits(a.data[start + i].load(Ordering::Relaxed), a.ty);
                    }
                },
            );
            out
        } else {
            (0..self.num_vertices as u32)
                .map(|i| self.read(id, i))
                .collect()
        }
    }
}

/// Below this many elements, fill/snapshot run serially (pool dispatch
/// would cost more than the copy).
const PARALLEL_PROP_THRESHOLD: usize = 1 << 15;
/// Elements per chunk for pool-parallel fill/snapshot.
const PARALLEL_PROP_CHUNK: usize = 4096;

#[inline(always)]
fn apply_reduce(op: ReduceOp, old: Value, v: Value, ty: Type) -> (Value, bool) {
    match op {
        ReduceOp::Sum => {
            let newv = Value::bin(ugc_graphir::types::BinOp::Add, old, v);
            let newv = coerce(newv, ty);
            let changed = !matches!(v, Value::Int(0) | Value::Float(0.0));
            (newv, changed)
        }
        ReduceOp::Min => {
            let better = Value::bin(ugc_graphir::types::BinOp::Lt, v, old).as_bool();
            (coerce(v, ty), better)
        }
        ReduceOp::Max => {
            let better = Value::bin(ugc_graphir::types::BinOp::Gt, v, old).as_bool();
            (coerce(v, ty), better)
        }
        ReduceOp::Or => {
            let newv = Value::Bool(old.as_bool() || v.as_bool());
            (newv, newv != old)
        }
    }
}

#[inline(always)]
fn coerce(v: Value, ty: Type) -> Value {
    match ty {
        Type::Float => Value::Float(v.as_float()),
        Type::Bool => v,
        _ => match v {
            Value::Float(f) => Value::Int(f as i64),
            other => Value::Int(other.as_int()),
        },
    }
}

/// Scalar global variables shared between "host" and "device" code.
#[derive(Debug, Default)]
pub struct GlobalTable {
    names: Vec<String>,
    tys: Vec<Type>,
    cells: Vec<AtomicU64>,
}

impl GlobalTable {
    /// Creates an empty table.
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds a global; returns its index.
    pub fn add(&mut self, name: impl Into<String>, ty: Type, init: Value) -> usize {
        self.names.push(name.into());
        self.tys.push(ty);
        self.cells.push(AtomicU64::new(init.to_bits(ty)));
        self.cells.len() - 1
    }

    /// Resolves a global by name.
    pub fn id_of(&self, name: &str) -> Option<usize> {
        self.names.iter().position(|n| n == name)
    }

    /// The declared type of a global.
    pub fn ty(&self, id: usize) -> Type {
        self.tys[id]
    }

    /// Reads a global.
    pub fn read(&self, id: usize) -> Value {
        Value::from_bits(self.read_bits(id), self.tys[id])
    }

    /// Reads a global's raw cell: the bit pattern [`Self::read`] decodes.
    pub fn read_bits(&self, id: usize) -> u64 {
        self.cells[id].load(Ordering::SeqCst)
    }

    /// Writes a global.
    pub fn write(&self, id: usize, v: Value) {
        self.cells[id].store(v.to_bits(self.tys[id]), Ordering::SeqCst);
    }

    /// Atomic reduction on a global; returns whether it changed.
    pub fn reduce(&self, id: usize, op: ReduceOp, v: Value) -> bool {
        let ty = self.tys[id];
        let cell = &self.cells[id];
        let mut cur = cell.load(Ordering::SeqCst);
        loop {
            let old = Value::from_bits(cur, ty);
            let (newv, changed) = apply_reduce(op, old, v, ty);
            if !changed {
                return false;
            }
            match cell.compare_exchange_weak(
                cur,
                newv.to_bits(ty),
                Ordering::SeqCst,
                Ordering::SeqCst,
            ) {
                Ok(_) => return true,
                Err(actual) => cur = actual,
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn add_and_lookup() {
        let mut p = PropertyStorage::new(3);
        let a = p.add("a", Type::Int, Value::Int(5));
        assert_eq!(p.id_of("a"), Some(a));
        assert_eq!(p.id_of("b"), None);
        assert_eq!(p.ty(a), Type::Int);
        assert_eq!(p.name(a), "a");
        assert_eq!(p.read(a, 1), Value::Int(5));
    }

    #[test]
    fn add_int_matches_sum_reduce() {
        let mut p = PropertyStorage::new(2);
        let a = p.add("a", Type::Int, Value::Int(i64::MAX - 1));
        for d in [3, -7, 0, 12] {
            p.add_int(a, 0, d);
            p.reduce(a, 1, ReduceOp::Sum, Value::Int(d));
        }
        assert_eq!(p.read(a, 0), p.read(a, 1));
    }

    #[test]
    fn cas_semantics() {
        let mut p = PropertyStorage::new(2);
        let a = p.add("a", Type::Vertex, Value::Int(-1));
        assert!(p.cas(a, 0, Value::Int(-1), Value::Int(7)));
        assert!(!p.cas(a, 0, Value::Int(-1), Value::Int(9)));
        assert_eq!(p.read(a, 0), Value::Int(7));
    }

    #[test]
    fn reduce_min_only_improves() {
        let mut p = PropertyStorage::new(1);
        let a = p.add("d", Type::Int, Value::Int(10));
        let (c1, old1) = p.reduce(a, 0, ReduceOp::Min, Value::Int(4));
        assert!(c1);
        assert_eq!(old1, Value::Int(10));
        let (c2, _) = p.reduce(a, 0, ReduceOp::Min, Value::Int(6));
        assert!(!c2);
        assert_eq!(p.read(a, 0), Value::Int(4));
    }

    #[test]
    fn reduce_sum_float() {
        let mut p = PropertyStorage::new(1);
        let a = p.add("r", Type::Float, Value::Float(0.0));
        p.reduce(a, 0, ReduceOp::Sum, Value::Float(0.5));
        p.reduce(a, 0, ReduceOp::Sum, Value::Float(0.25));
        assert_eq!(p.read(a, 0), Value::Float(0.75));
    }

    #[test]
    fn reduce_sum_zero_reports_unchanged() {
        let mut p = PropertyStorage::new(1);
        let a = p.add("r", Type::Int, Value::Int(3));
        let (changed, _) = p.reduce(a, 0, ReduceOp::Sum, Value::Int(0));
        assert!(!changed);
    }

    #[test]
    fn reduce_or_bool() {
        let mut p = PropertyStorage::new(1);
        let a = p.add("f", Type::Bool, Value::Bool(false));
        let (c1, _) = p.reduce(a, 0, ReduceOp::Or, Value::Bool(true));
        assert!(c1);
        let (c2, _) = p.reduce(a, 0, ReduceOp::Or, Value::Bool(true));
        assert!(!c2);
    }

    #[test]
    fn parallel_reduce_sum_is_exact() {
        let mut p = PropertyStorage::new(1);
        let a = p.add("acc", Type::Int, Value::Int(0));
        crate::pool::parallel_for(4, 4000, 1000, |_tid, range| {
            for _ in range {
                p.reduce(a, 0, ReduceOp::Sum, Value::Int(1));
            }
        });
        assert_eq!(p.read(a, 0), Value::Int(4000));
    }

    #[test]
    fn parallel_cas_single_winner() {
        let mut p = PropertyStorage::new(1);
        let a = p.add("owner", Type::Int, Value::Int(-1));
        let winners = std::sync::atomic::AtomicUsize::new(0);
        crate::pool::parallel_for(8, 8, 1, |_tid, range| {
            for t in range {
                if p.cas(a, 0, Value::Int(-1), Value::Int(t as i64)) {
                    winners.fetch_add(1, Ordering::SeqCst);
                }
            }
        });
        assert_eq!(winners.load(Ordering::SeqCst), 1);
    }

    #[test]
    fn fill_resets() {
        let mut p = PropertyStorage::new(3);
        let a = p.add("x", Type::Int, Value::Int(1));
        p.write(a, 2, Value::Int(9));
        p.fill(a, Value::Int(0));
        assert_eq!(p.snapshot(a), vec![Value::Int(0); 3]);
    }

    #[test]
    fn large_fill_and_snapshot_use_pool_path() {
        let n = super::PARALLEL_PROP_THRESHOLD + 17;
        let mut p = PropertyStorage::new(n);
        let a = p.add("x", Type::Int, Value::Int(1));
        p.write(a, 5, Value::Int(9));
        p.fill(a, Value::Int(3));
        let snap = p.snapshot(a);
        assert_eq!(snap.len(), n);
        assert!(snap.iter().all(|&v| v == Value::Int(3)));
    }

    #[test]
    fn columns_move_the_stored_bits_out_in_place() {
        let mut p = PropertyStorage::new(3);
        let x = p.add("x", Type::Int, Value::Int(-2));
        let r = p.add("r", Type::Float, Value::Float(0.5));
        let b = p.add("b", Type::Bool, Value::Bool(true));
        p.write(x, 1, Value::Int(7));
        p.write(b, 2, Value::Bool(false));
        let buffers: Vec<usize> = p.arrays.iter().map(|a| a.data.as_ptr() as usize).collect();
        let want: Vec<Vec<u64>> = [(x, Type::Int), (r, Type::Float), (b, Type::Bool)]
            .iter()
            .map(|&(id, ty)| p.snapshot(id).iter().map(|v| v.to_bits(ty)).collect())
            .collect();
        let cols: Vec<_> = p.into_columns().collect();
        let names: Vec<_> = cols.iter().map(|(n, ty, _)| (n.as_str(), *ty)).collect();
        assert_eq!(
            names,
            [("x", Type::Int), ("r", Type::Float), ("b", Type::Bool)]
        );
        for ((_, _, cells), (want, buffer)) in cols.iter().zip(want.iter().zip(&buffers)) {
            assert_eq!(cells, want);
            assert_eq!(cells.as_ptr() as usize, *buffer, "cells were copied");
        }
    }

    #[test]
    fn globals_reduce() {
        let mut g = GlobalTable::new();
        let e = g.add("err", Type::Float, Value::Float(0.0));
        g.reduce(e, ReduceOp::Sum, Value::Float(1.5));
        assert_eq!(g.read(e), Value::Float(1.5));
        assert_eq!(g.id_of("err"), Some(e));
    }
}
