//! Step 2: composing per-element segments into pipeline paths.
//!
//! A segment's constraint and packet transform are expressed over the symbols
//! of *that element's input packet*. To reason about a pipeline path we
//! rewrite ("stitch", in the paper's terms) every downstream term into the
//! symbol space of the *original* packet entering the pipeline, by
//! substituting each `PacketByte(i)` / `PacketLen` with the symbolic output
//! of the upstream prefix, and renaming per-element fresh variables and
//! data-structure reads so that different pipeline positions cannot collide.

use dataplane_symbex::term::{self, Term, TermRef};
use dataplane_symbex::{SymPacket, VarId};
use std::sync::atomic::{AtomicU32, Ordering};
use std::sync::Arc;

/// Stride between the variable/read namespaces of consecutive pipeline
/// stages.
pub const STAGE_STRIDE: u32 = 1_000_000;
/// First variable id used for over-approximation variables created during
/// composition (far above any renamed engine variable).
const FRESH_BASE: u32 = 0x4000_0000;
/// Span of the over-approximation variable namespace owned by one
/// composition depth (see [`FreshScope`]).
const FRESH_SPAN: u32 = 1 << 20;
/// Deepest composition depth the depth-indexed namespaces support: past
/// this, stage strides would run into `FRESH_BASE` (and fresh spans would
/// approach `u32::MAX`), silently aliasing ids from different depths. No
/// real pipeline path approaches this (paths are acyclic, so depth is
/// bounded by the element count), and aliased namespaces could corrupt
/// verdicts — so exceeding the bound is a loud panic, never an alias.
pub const MAX_COMPOSE_DEPTH: usize = 1024;

/// The variable namespace of composition depth `depth` (0 = the pipeline
/// entry element). Depth-indexed strides make the rewritten terms of a
/// composed path a pure function of the path itself — independent of the
/// order in which paths are explored — which is what lets a shard computed
/// on a remote worker produce terms identical to the in-process fold.
pub fn stride_for_depth(depth: usize) -> u32 {
    assert!(
        depth < MAX_COMPOSE_DEPTH,
        "composed path depth {depth} exceeds MAX_COMPOSE_DEPTH ({MAX_COMPOSE_DEPTH})"
    );
    (depth as u32 + 1) * STAGE_STRIDE
}

/// The composition depth owning renamed variable/read id `id`, if any
/// (inverse of [`stride_for_depth`]; `None` for original-namespace ids and
/// for over-approximation variables).
pub fn depth_of_id(id: u32) -> Option<usize> {
    if id >= FRESH_BASE {
        return None;
    }
    (id / STAGE_STRIDE).checked_sub(1).map(|d| d as usize)
}

/// A deterministic allocator for over-approximation variables, scoped to one
/// rewrite call at one composition depth. Within a composed path each depth
/// contributes exactly one rewrite call, so per-depth bases keep the ids
/// unique within any one constraint set while staying reproducible across
/// walk orders (unlike [`Composer`]'s process-global counter).
pub struct FreshScope {
    next: AtomicU32,
}

impl FreshScope {
    /// The allocator for a rewrite performed at composition depth `depth`.
    pub fn for_depth(depth: usize) -> FreshScope {
        assert!(
            depth < MAX_COMPOSE_DEPTH,
            "composed path depth {depth} exceeds MAX_COMPOSE_DEPTH ({MAX_COMPOSE_DEPTH})"
        );
        FreshScope {
            next: AtomicU32::new(FRESH_BASE + depth as u32 * FRESH_SPAN),
        }
    }

    fn fresh(&self, width: u8) -> TermRef {
        let id = self.next.fetch_add(1, Ordering::Relaxed);
        Arc::new(Term::Var {
            id: VarId(id),
            width,
        })
    }
}

/// The symbolic view of the packet at some point in the pipeline, expressed
/// over the original input packet's symbols.
#[derive(Clone)]
pub enum View {
    /// The packet exactly as it entered the pipeline.
    Original,
    /// The packet after one more element.
    Stage(Arc<StageView>),
}

/// One composition stage: the previous view plus the packet transform of the
/// segment taken through the element at this stage.
pub struct StageView {
    prev: View,
    packet: SymPacket,
    stride: u32,
}

/// Shared composition context: allocates stage strides and over-approximation
/// variables, and remembers which pipeline element owns each stride (needed
/// to concretise static state later).
pub struct Composer {
    next_stride: u32,
    /// Atomic (rather than `Cell`) so a `Composer` stays `Sync`.
    next_fresh: AtomicU32,
    /// `(stride, element index)` pairs in allocation order.
    pub stride_elements: Vec<(u32, usize)>,
}

impl Default for Composer {
    fn default() -> Self {
        Composer::new()
    }
}

impl Composer {
    /// A fresh composer.
    pub fn new() -> Self {
        Composer {
            next_stride: STAGE_STRIDE,
            next_fresh: AtomicU32::new(FRESH_BASE),
            stride_elements: Vec::new(),
        }
    }

    /// Allocate the variable namespace for the next stage, owned by
    /// `element_idx`.
    pub fn alloc_stride(&mut self, element_idx: usize) -> u32 {
        let stride = self.next_stride;
        self.next_stride += STAGE_STRIDE;
        self.stride_elements.push((stride, element_idx));
        stride
    }

    /// Which element owns the namespace that variable/read id `id` falls in,
    /// if any. Serves the legacy allocation-order stride scheme
    /// ([`Composer::alloc_stride`], still used by the monolithic baseline
    /// and the instruction-bound walk); the Step-2 walk's depth-indexed
    /// scheme resolves elements through [`depth_of_id`] instead.
    pub fn element_of_id(&self, id: u32) -> Option<usize> {
        if id >= FRESH_BASE {
            return None;
        }
        let stride = (id / STAGE_STRIDE) * STAGE_STRIDE;
        self.stride_elements
            .iter()
            .find(|(s, _)| *s == stride)
            .map(|(_, e)| *e)
    }

    fn fresh(&self, width: u8) -> TermRef {
        let id = self.next_fresh.fetch_add(1, Ordering::Relaxed);
        Arc::new(Term::Var {
            id: VarId(id),
            width,
        })
    }

    /// Allocate an over-approximation variable from `scope` when one is
    /// given (the deterministic Step-2 walk), else from the process-global
    /// counter (legacy sequential callers).
    fn fresh_in(&self, scope: Option<&FreshScope>, width: u8) -> TermRef {
        match scope {
            Some(scope) => scope.fresh(width),
            None => self.fresh(width),
        }
    }

    /// Extend `view` with the packet transform of a segment taken at
    /// `stride`.
    pub fn extend_view(&self, view: &View, packet: &SymPacket, stride: u32) -> View {
        View::Stage(Arc::new(StageView {
            prev: view.clone(),
            packet: packet.clone(),
            stride,
        }))
    }

    /// Byte `j` of the packet described by `view`, as a term over the
    /// original input symbols.
    pub fn view_byte(&self, view: &View, j: i64) -> TermRef {
        self.view_byte_in(view, j, None)
    }

    fn view_byte_in(&self, view: &View, j: i64, scope: Option<&FreshScope>) -> TermRef {
        match view {
            View::Original => {
                if j >= 0 {
                    Arc::new(Term::PacketByte(j))
                } else {
                    term::constant(dataplane_ir::BitVec::u8(0))
                }
            }
            View::Stage(stage) => {
                if stage.packet.out_byte_is_unknown(j) {
                    // Unknown content after a symbolic-offset rewrite that
                    // may have reached this byte. Bytes outside the clobber
                    // range stay precise — that is what lets fixed header
                    // fields flow through option-processing elements.
                    return self.fresh_in(scope, 8);
                }
                let local = stage.packet.out_byte(j);
                self.rewrite_in(&stage.prev, stage.stride, &local, scope)
            }
        }
    }

    /// The length of the packet described by `view`, over original symbols.
    pub fn view_len(&self, view: &View) -> TermRef {
        self.view_len_in(view, None)
    }

    fn view_len_in(&self, view: &View, scope: Option<&FreshScope>) -> TermRef {
        match view {
            View::Original => Arc::new(Term::PacketLen),
            View::Stage(stage) => {
                let local = stage.packet.out_len();
                self.rewrite_in(&stage.prev, stage.stride, &local, scope)
            }
        }
    }

    /// The net front-shift of `view` relative to the original packet when the
    /// view is a pure shift (no byte rewritten anywhere along the prefix).
    fn pure_shift(&self, view: &View) -> Option<i64> {
        match view {
            View::Original => Some(0),
            View::Stage(stage) => {
                if stage.packet.rewrites_bytes() {
                    None
                } else {
                    Some(self.pure_shift(&stage.prev)? + stage.packet.base())
                }
            }
        }
    }

    /// Rewrite a term expressed over the input symbols of the element sitting
    /// *after* `view` (whose fresh-variable namespace is `stride`) into a
    /// term over the original input symbols.
    pub fn rewrite(&self, view: &View, stride: u32, t: &TermRef) -> TermRef {
        self.rewrite_in(view, stride, t, None)
    }

    fn rewrite_in(
        &self,
        view: &View,
        stride: u32,
        t: &TermRef,
        scope: Option<&FreshScope>,
    ) -> TermRef {
        term::substitute(t, &|leaf| match leaf {
            Term::PacketByte(i) => Some(self.view_byte_in(view, *i, scope)),
            Term::PacketLen => Some(self.view_len_in(view, scope)),
            Term::Var { id, width } => Some(Arc::new(Term::Var {
                id: VarId(id.0 + stride),
                width: *width,
            })),
            Term::DsRead {
                ds,
                key,
                seq,
                width,
            } => Some(Arc::new(Term::DsRead {
                ds: *ds,
                key: self.rewrite_in(view, stride, key, scope),
                seq: seq + stride,
                width: *width,
            })),
            Term::PacketByteAt { index } => {
                let rewritten_index = self.rewrite_in(view, stride, index, scope);
                match self.pure_shift(view) {
                    Some(shift) => {
                        let shifted = if shift == 0 {
                            rewritten_index
                        } else if shift > 0 {
                            term::binary(
                                dataplane_ir::BinOp::Add,
                                rewritten_index,
                                term::constant(dataplane_ir::BitVec::u32(shift as u32)),
                            )
                        } else {
                            term::binary(
                                dataplane_ir::BinOp::Sub,
                                rewritten_index,
                                term::constant(dataplane_ir::BitVec::u32((-shift) as u32)),
                            )
                        };
                        Some(Arc::new(Term::PacketByteAt { index: shifted }))
                    }
                    // Bytes may have been rewritten upstream: the value read
                    // at a symbolic offset is unknown.
                    None => Some(self.fresh_in(scope, 8)),
                }
            }
            _ => None,
        })
    }

    /// Rewrite a whole constraint (conjunct list).
    pub fn rewrite_all(&self, view: &View, stride: u32, terms: &[TermRef]) -> Vec<TermRef> {
        terms
            .iter()
            .map(|t| self.rewrite(view, stride, t))
            .collect()
    }

    /// [`Composer::rewrite_all`] with over-approximation variables drawn from
    /// `scope` instead of the process-global counter: the resulting terms are
    /// a pure function of `(view, stride, terms)`, which compose sharding
    /// relies on for order-independent (and thus fold-identical)
    /// composition.
    pub fn rewrite_all_scoped(
        &self,
        view: &View,
        stride: u32,
        terms: &[TermRef],
        scope: &FreshScope,
    ) -> Vec<TermRef> {
        terms
            .iter()
            .map(|t| self.rewrite_in(view, stride, t, Some(scope)))
            .collect()
    }
}

/// Substitute concrete values for chosen original packet bytes (used by the
/// reachability property to pin the destination address).
pub fn bind_packet_bytes(terms: &[TermRef], bindings: &[(i64, u8)]) -> Vec<TermRef> {
    terms
        .iter()
        .map(|t| {
            term::substitute(t, &|leaf| match leaf {
                Term::PacketByte(i) => bindings
                    .iter()
                    .find(|(j, _)| j == i)
                    .map(|(_, v)| term::constant(dataplane_ir::BitVec::u8(*v))),
                _ => None,
            })
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use dataplane_ir::{BinOp, BitVec};
    use dataplane_symbex::term::{binary, constant, eval, Assignment};

    fn c32(v: u32) -> TermRef {
        constant(BitVec::u32(v))
    }

    #[test]
    fn original_view_is_identity() {
        let composer = Composer::new();
        let v = View::Original;
        assert_eq!(composer.view_byte(&v, 3).to_string(), "pkt[3]");
        assert_eq!(composer.view_len(&v).to_string(), "pkt.len");
        assert_eq!(
            composer.view_byte(&v, -1).as_const().unwrap(),
            BitVec::u8(0)
        );
    }

    #[test]
    fn strip_stage_shifts_downstream_bytes() {
        let mut composer = Composer::new();
        let stride = composer.alloc_stride(0);
        let mut packet = SymPacket::new();
        packet.strip_front(14);
        let view = composer.extend_view(&View::Original, &packet, stride);
        // Byte 0 after the strip is original byte 14.
        assert_eq!(composer.view_byte(&view, 0).to_string(), "pkt[14]");
        // Length shrinks by 14.
        let len = composer.view_len(&view);
        let mut a = Assignment::from_packet(&[0u8; 64]);
        a.packet_len = 64;
        assert_eq!(eval(&len, &a).unwrap(), BitVec::u32(50));
    }

    #[test]
    fn rewrites_rename_vars_and_reads() {
        let mut composer = Composer::new();
        let stride = composer.alloc_stride(2);
        let var = Arc::new(Term::Var {
            id: VarId(3),
            width: 8,
        });
        let read = Arc::new(Term::DsRead {
            ds: dataplane_ir::DsId(1),
            key: Arc::new(Term::PacketByte(0)),
            seq: 7,
            width: 16,
        });
        let t = binary(
            BinOp::Eq,
            term::cast(dataplane_ir::CastKind::ZExt, 16, var),
            read,
        );
        let rewritten = composer.rewrite(&View::Original, stride, &t);
        let s = rewritten.to_string();
        assert!(s.contains(&format!("v{}", 3 + stride)), "{s}");
        assert!(s.contains(&format!("#{}", 7 + stride)), "{s}");
        assert_eq!(composer.element_of_id(3 + stride), Some(2));
        assert_eq!(composer.element_of_id(FRESH_BASE + 1), None);
    }

    #[test]
    fn written_bytes_flow_into_downstream_terms() {
        // Upstream writes byte 1 to (pkt[0] + 1); downstream constraint
        // "byte 1 == 5" must become "pkt[0] + 1 == 5".
        let mut composer = Composer::new();
        let stride0 = composer.alloc_stride(0);
        let mut packet = SymPacket::new();
        let mut no_fresh = || panic!("unexpected fresh var");
        let incremented = binary(
            BinOp::Add,
            Arc::new(Term::PacketByte(0)),
            constant(BitVec::u8(1)),
        );
        packet.store(&c32(1), 1, &incremented, &mut no_fresh);
        let view = composer.extend_view(&View::Original, &packet, stride0);

        let stride1 = composer.alloc_stride(1);
        let downstream = binary(
            BinOp::Eq,
            Arc::new(Term::PacketByte(1)),
            constant(BitVec::u8(5)),
        );
        let composed = composer.rewrite(&view, stride1, &downstream);
        // Evaluate under a concrete original packet: byte0 = 4 satisfies it.
        let a = Assignment::from_packet(&[4, 9, 9]);
        assert!(eval(&composed, &a).unwrap().is_true());
        let a = Assignment::from_packet(&[7, 9, 9]);
        assert!(!eval(&composed, &a).unwrap().is_true());
    }

    #[test]
    fn clobbered_stage_over_approximates_bytes() {
        let mut composer = Composer::new();
        let stride = composer.alloc_stride(0);
        let mut packet = SymPacket::new();
        let mut counter = 0;
        let mut fresh = || {
            counter += 1;
            Arc::new(Term::Var {
                id: VarId(100 + counter),
                width: 8,
            })
        };
        // A store at a symbolic offset clobbers the overlay.
        packet.store(
            &Arc::new(Term::PacketLen),
            1,
            &constant(BitVec::u8(1)),
            &mut fresh,
        );
        let view = composer.extend_view(&View::Original, &packet, stride);
        let b = composer.view_byte(&view, 3);
        assert!(
            b.to_string().starts_with('v'),
            "expected a fresh var, got {b}"
        );
        // Length is still precise.
        assert_eq!(composer.view_len(&view).to_string(), "pkt.len");
    }

    #[test]
    fn depth_strides_round_trip() {
        assert_eq!(stride_for_depth(0), STAGE_STRIDE);
        assert_eq!(depth_of_id(stride_for_depth(3) + 17), Some(3));
        assert_eq!(depth_of_id(5), None, "original namespace has no depth");
        assert_eq!(depth_of_id(FRESH_BASE + 1), None, "fresh vars have none");
    }

    #[test]
    fn scoped_rewrites_are_order_independent() {
        // A clobbered view forces fresh-variable allocation; scoped rewrites
        // must produce identical terms regardless of unrelated allocations
        // in between (the global counter would drift).
        let mut composer = Composer::new();
        let stride = composer.alloc_stride(0);
        let mut packet = SymPacket::new();
        let mut counter = 0;
        let mut fresh = || {
            counter += 1;
            Arc::new(Term::Var {
                id: VarId(100 + counter),
                width: 8,
            })
        };
        packet.store(
            &Arc::new(Term::PacketLen),
            1,
            &constant(BitVec::u8(1)),
            &mut fresh,
        );
        let view = composer.extend_view(&View::Original, &packet, stride);
        let t = binary(
            BinOp::Eq,
            Arc::new(Term::PacketByte(3)),
            constant(BitVec::u8(7)),
        );
        let a = composer.rewrite_all_scoped(
            &view,
            stride_for_depth(1),
            std::slice::from_ref(&t),
            &FreshScope::for_depth(1),
        );
        composer.fresh(8); // perturb the global counter
        composer.fresh(8);
        let b = composer.rewrite_all_scoped(
            &view,
            stride_for_depth(1),
            &[t],
            &FreshScope::for_depth(1),
        );
        assert_eq!(a, b, "scoped rewrite must be a pure function");
        assert!(
            a[0].to_string().contains('v'),
            "clobber produced a fresh var"
        );
    }

    #[test]
    fn binding_packet_bytes_substitutes_constants() {
        let t = binary(
            BinOp::Eq,
            Arc::new(Term::PacketByte(30)),
            constant(BitVec::u8(0xc0)),
        );
        let bound = bind_packet_bytes(&[t], &[(30, 0xc0)]);
        assert!(bound[0].is_true());
        let t = binary(
            BinOp::Eq,
            Arc::new(Term::PacketByte(30)),
            constant(BitVec::u8(0x01)),
        );
        let bound = bind_packet_bytes(&[t], &[(30, 0xc0)]);
        assert!(bound[0].is_false());
    }

    #[test]
    fn stacked_strips_accumulate() {
        let mut composer = Composer::new();
        let s0 = composer.alloc_stride(0);
        let mut p0 = SymPacket::new();
        p0.strip_front(14);
        let v1 = composer.extend_view(&View::Original, &p0, s0);
        let s1 = composer.alloc_stride(1);
        let mut p1 = SymPacket::new();
        p1.strip_front(20);
        let v2 = composer.extend_view(&v1, &p1, s1);
        assert_eq!(composer.view_byte(&v2, 0).to_string(), "pkt[34]");
        let len = composer.view_len(&v2);
        let mut a = Assignment::from_packet(&[0u8; 100]);
        a.packet_len = 100;
        assert_eq!(eval(&len, &a).unwrap(), BitVec::u32(66));
    }
}
