"""Vectorized per-cycle kernels of the structure-of-arrays NoC backend.

These functions implement the same three-phase cycle as the object backend
(:class:`repro.noc.network.MeshNetwork`) — injection, switch allocation,
link traversal — but operate on the flat NumPy state arrays of
:class:`repro.noc.soa.SoAMeshNetwork` instead of walking ``Router`` /
``VirtualChannel`` / ``Flit`` objects.  No per-packet Python object is
touched on the hot path; packet objects surface only at the (rare) head
injection and tail-ejection events that feed the latency statistics.

The kernels are written to be **behavior-fingerprint-identical** to the
object backend: the same packets move through the same virtual channels in
the same cycles, the VCO/BOC counters accumulate the same floating-point
values in the same order, and delivered packets are recorded in the same
order.  The key structural facts that make flat vectorization exact:

* each downstream input port has exactly one upstream router, and a router
  grants at most one move per output direction per cycle, so every move of
  a cycle touches a distinct destination VC — all winning moves can be
  applied with independent fancy-indexed updates;
* arbitration ("first eligible flit in rotation-priority order wins the
  output") reduces to a per-``(router, output)`` minimum over a priority
  key, because a candidate's eligibility depends only on start-of-cycle
  state;
* applying all pops before all pushes is equivalent to the object backend's
  sequential move execution, because a FIFO pop and a push into the same
  ring buffer commute.

Flits are packed into single int64 slot values —
``packet_id << 21 | is_tail << 20 | flit_index`` — so a head-of-line peek
is one gather and a link traversal one scatter.  Per-candidate routing and
arbitration lookups come from tables precomputed per topology (see
:class:`repro.noc.soa.SoAMeshNetwork`): the XY next-hop table, the
downstream-port base per ``(router, output)`` pair, and the rotation
priority key per VC for each of the 60 (= lcm of 3/4/5-port routers)
arbitration phases.
"""

from __future__ import annotations

import numpy as np

__all__ = ["inject", "switch", "FIDX_MASK", "TAIL_BIT", "PKT_SHIFT", "KEY_PERIOD"]

#: Packed flit layout: low 20 bits flit index, bit 20 the tail flag, the
#: packet id above.  Packet sizes are bounded by the source queue capacity,
#: far below the 2^20 flit-index ceiling.
FIDX_MASK = (1 << 20) - 1
TAIL_BIT = 1 << 20
PKT_SHIFT = 21

#: Rotation-priority phase count: lcm(3, 4, 5) input ports per router.
KEY_PERIOD = 60

#: Priority sentinel larger than any (rank * num_vcs + vc) key.
_BIG = np.int32(1 << 30)


def _wrap(value: np.ndarray, modulus: int, mask: int | None) -> np.ndarray:
    """Ring-buffer index wrap: bitmask when the modulus is a power of two.

    numpy's ``%`` with a runtime divisor issues a hardware integer division
    per element; the masked form is a single cheap op on the hot arrays.
    """
    return value & mask if mask is not None else value % modulus


# -- phase 1: injection -------------------------------------------------------


def inject(net, cycle: int) -> None:
    """Move flits from source queues into LOCAL input ports (one cycle).

    Mirrors ``MeshNetwork._inject``: throttled nodes first accrue fractional
    bandwidth credit (capped at one cycle's worth), then every node with a
    non-empty source queue injects up to ``injection_bandwidth`` flits,
    gated by free-VC availability and — for *new* packets only — by the
    node's injection allowance.
    """
    bandwidth = net.injection_bandwidth
    limited = net._limited_idx
    if limited.size:
        net._allowance[limited] = np.minimum(
            net._allowance[limited] + net._limits[limited] * bandwidth,
            float(bandwidth),
        )
    active = np.nonzero(net._sq_count > 0)[0]
    if active.size == 0:
        return
    active = _inject_pass(net, active, cycle)
    for _ in range(bandwidth - 1):
        if active.size == 0:
            break
        active = _inject_pass(net, active, cycle)


def _inject_pass(net, nodes: np.ndarray, cycle: int) -> np.ndarray:
    """One flit-injection attempt per node; returns nodes worth revisiting."""
    num_vcs = net.num_vcs
    depth = net.vc_depth
    capacity = net.source_queue_capacity

    front = net._sq_head[nodes]
    val = net._sq_flat[nodes * capacity + front]
    fidx = val & FIDX_MASK
    pkt = val >> PKT_SHIFT
    is_head = fidx == 0
    # A flit starts a new packet when it is the head flit of a packet that
    # has not entered the network yet; only those are gated by the policy
    # limit (continuation flits must never strand a partial worm).
    new_head = is_head & (net._pkt_injected.values[pkt] < 0)
    throttled = None
    if net._limited_idx.size:
        throttled = net._limits[nodes] < 1.0
        passes = ~(throttled & new_head & (net._allowance[nodes] < 1.0))
        if not passes.all():
            nodes = nodes[passes]
            if nodes.size == 0:
                return nodes
            front = front[passes]
            val = val[passes]
            pkt = pkt[passes]
            is_head = is_head[passes]
            new_head = new_head[passes]
            throttled = throttled[passes]

    # Pick a VC on the LOCAL input port.  Body/tail flits continue in the VC
    # their packet's head was injected into (cached per node — at most one
    # partially injected packet exists per source queue, and its VC stays
    # allocated until the tail flit leaves the router); head flits search
    # the port for a free VC.
    vc = net._node_vc[nodes]
    has_vc = net._vc_count[vc] < depth
    heads = np.nonzero(is_head)[0]
    if heads.size:
        # First unallocated (⟺ empty, head-ready) VC of the LOCAL port, from
        # the incrementally maintained per-port cache.
        local_port = nodes[heads] * 5
        first_free = net._port_first_free[local_port]
        vc[heads] = local_port * num_vcs + first_free
        has_vc[heads] = first_free < num_vcs
    if not has_vc.all():
        if not has_vc.any():
            return nodes[:0]
        nodes = nodes[has_vc]
        front = front[has_vc]
        val = val[has_vc]
        pkt = pkt[has_vc]
        is_head = is_head[has_vc]
        new_head = new_head[has_vc]
        vc = vc[has_vc]
        heads = np.nonzero(is_head)[0]
        if throttled is not None:
            throttled = throttled[has_vc]

    # Pop the source queue, push into the chosen VC.
    net._sq_head[nodes] = _wrap(front + 1, capacity, net._cap_mask)
    net._sq_count[nodes] -= 1
    slot = vc * depth + _wrap(
        net._vc_head[vc] + net._vc_count[vc], depth, net._depth_mask
    )
    net._vc_slots[slot] = val
    net._vc_count[vc] += 1
    local_ports = nodes * 5
    net._buf_writes[local_ports] += 1
    if heads.size:
        head_vc = vc[heads]
        net._vc_alloc[head_vc] = pkt[heads]
        net._vc_down[head_vc] = -1
        net._node_vc[nodes[heads]] = head_vc
        head_ports = local_ports[heads]
        net._occupied[head_ports] += 1
        _refresh_first_free(net, head_ports)
    if throttled is not None and throttled.any():
        net._allowance[nodes[throttled]] -= 1.0

    new_idx = np.nonzero(new_head)[0]
    if new_idx.size:
        net._record_injected_ids(pkt[new_idx], cycle)

    if net.injection_bandwidth == 1:
        return nodes[:0]
    return nodes[net._sq_count[nodes] > 0]


def _refresh_first_free(net, ports: np.ndarray) -> None:
    """Recompute the first-free-VC cache for ``ports`` (post head-push)."""
    num_vcs = net.num_vcs
    grid = ports[:, None] * num_vcs + net._arange_vcs[None, :]
    free = net._vc_alloc[grid] == -1
    first = np.argmax(free, axis=1)
    net._port_first_free[ports] = np.where(free.any(axis=1), first, num_vcs)


# -- phases 2 + 3: switch allocation and link traversal ----------------------


def switch(net, cycle: int) -> None:
    """Allocate and execute this cycle's flit moves over the whole mesh."""
    num_vcs = net.num_vcs
    depth = net.vc_depth

    q = np.nonzero(net._vc_count > 0)[0]
    if q.size == 0:
        return

    # Peek every occupied VC's head-of-line flit (one packed gather).
    val = net._vc_slots[q * depth + net._vc_head[q]]
    pkt = val >> PKT_SHIFT
    is_head = (val & FIDX_MASK) == 0
    # Fused XY lookup: the table directly yields the (router, output) slot
    # id ``node * 5 + out_dir``; LOCAL outputs are the slots ≡ 0 (mod 5).
    # Past the route-table cut-over (O(nodes²) memory) the direction is
    # derived on the fly from coordinates — a handful of elementwise ops on
    # the candidate set instead of one gather into a quadratic table.
    dest = net._pkt_dest.values[pkt]
    if net._dynamic_routes:
        # Degraded mesh: the fault-aware provider's state-dependent table
        # replaces XY.  VCs with a live wormhole binding derive their output
        # from the binding itself (the direction their head actually took —
        # a table rebuild mid-worm must not re-route the body), matching the
        # object backend's cached ``vc.output_direction``.  Unbound fronts
        # are heads (or locally ejecting bodies) routed from the table by
        # their travel state; fault-activation excision guarantees the
        # lookup never yields "unroutable".
        out_dir = net._route3[net._q_state_base[q] + dest].astype(np.int64)
        cached_down = net._vc_down[q]
        bound = cached_down >= 0
        if bound.any():
            bound_dir = net._tables.opposite[(cached_down // net.num_vcs) % 5]
            out_dir = np.where(bound, bound_dir, out_dir)
        if (out_dir < 0).any():  # pragma: no cover - excision invariant
            raise RuntimeError("unroutable head reached the switch kernel")
        slot_id = net._q_node5[q] + out_dir
    elif net._route_slot is not None:
        slot_id = net._route_slot[net._q_node_base[q] + dest]
        if net._q_slot_off is not None:
            # Batched disjoint-union mode: the route table stays the solo
            # per-episode one (small enough to sit in cache), q_node_base is
            # biased so the fused index lands on the episode-local (node,
            # dest) entry, and the episode's arbitration-slot offset is
            # added here to globalise the slot id.
            slot_id = slot_id + net._q_slot_off[q]
    else:
        node = net._q_node[q]
        tables = net._tables
        nx = tables.x[node]
        ny = tables.y[node]
        dx = tables.x[dest]
        dy = tables.y[dest]
        # DIRECTION_INDEX order: LOCAL=0, EAST=1, NORTH=2, WEST=3, SOUTH=4.
        out_dir = np.where(
            nx < dx,
            1,
            np.where(nx > dx, 3, np.where(ny < dy, 2, np.where(ny > dy, 4, 0))),
        )
        slot_id = net._q_node5[q] + out_dir
    eject = net._slot_is_local[slot_id]
    key = net._key_table[cycle % KEY_PERIOD][q]

    # Downstream VC per candidate (-1 when the move is not possible).  Body
    # and tail flits follow their VC's cached wormhole binding; a head-front
    # VC always carries ``vc_down == -1`` (the binding is reset both when a
    # tail pops and when a head pushes), so the cached path yields -1 for
    # heads and the free-VC search below only needs to fill those in.
    cached = net._vc_down[q]
    valid = cached >= 0
    down = np.where(
        valid & (net._vc_count.take(cached, mode="clip") < depth), cached, -1
    )
    head_idx = np.nonzero(is_head & ~eject)[0]
    if head_idx.size:
        # A VC is free to accept a new head iff it is unallocated: an
        # allocated VC may be empty (its flits forwarded, tail still
        # upstream) but an unallocated one is always empty.  The first free
        # VC per port comes from the incrementally maintained cache.
        down_port = net._down_port[slot_id[head_idx]]
        first_free = net._port_first_free[down_port]
        down[head_idx] = np.where(
            first_free < num_vcs, down_port * num_vcs + first_free, -1
        )

    eligible = eject | (down >= 0)
    if not eligible.any():
        return

    # Winner per (router, output direction): minimum priority key among the
    # eligible candidates.  Keys are unique within a slot (distinct ports
    # differ in rotation rank, distinct VCs of one port in vc index);
    # ineligible candidates carry the sentinel so they can never win.
    masked_key = np.where(eligible, key, _BIG)
    best = net._best_key
    best[slot_id] = _BIG
    np.minimum.at(best, slot_id, masked_key)
    winners = np.nonzero(eligible & (masked_key == best[slot_id]))[0]

    src = q[winners]
    win_val = val[winners]
    win_tail = (win_val & TAIL_BIT) != 0
    win_down = down[winners]
    src_port = net._q_port[src]
    tail_idx = np.nonzero(win_tail)[0]

    # Pops (every winning move reads its source VC's head-of-line flit).
    net._vc_head[src] = _wrap(net._vc_head[src] + 1, depth, net._depth_mask)
    net._vc_count[src] -= 1
    released = src[tail_idx]
    net._vc_alloc[released] = -1
    net._vc_down[released] = -1
    # bincount + whole-array add beats np.add.at's per-element dispatch once
    # the winner set is more than a handful of moves (the batched case).
    net._buf_reads += np.bincount(src_port, minlength=net._buf_reads.size)
    tail_ports = src_port[tail_idx]
    np.add.at(net._occupied, tail_ports, -1)
    # A released VC may now be the port's first free one (two tails can pop
    # from one port in a cycle, hence minimum.at).
    np.minimum.at(net._port_first_free, tail_ports, released % net.num_vcs)

    # Ejections (at most one per router per cycle, in ascending node order —
    # the same order the object backend records deliveries in).
    win_eject = eject[winners]
    eject_idx = np.nonzero(win_eject)[0]
    if eject_idx.size:
        net._record_ejections(
            net._q_node[src[eject_idx]],
            win_tail[eject_idx],
            win_val[eject_idx] >> PKT_SHIFT,
            cycle,
        )

    # Link traversals (pushes; distinct destination VCs by construction).
    fwd_idx = np.nonzero(~win_eject)[0]
    if fwd_idx.size:
        dst = win_down[fwd_idx]
        fwd_val = win_val[fwd_idx]
        fwd_tail = win_tail[fwd_idx]
        head_idx2 = np.nonzero(is_head[winners[fwd_idx]])[0]
        slot2 = dst * depth + _wrap(
            net._vc_head[dst] + net._vc_count[dst], depth, net._depth_mask
        )
        net._vc_slots[slot2] = fwd_val
        net._vc_count[dst] += 1
        head_dst = dst[head_idx2]
        net._vc_alloc[head_dst] = fwd_val[head_idx2] >> PKT_SHIFT
        net._vc_down[head_dst] = -1
        dst_port = net._q_port[dst]
        net._buf_writes += np.bincount(dst_port, minlength=net._buf_writes.size)
        if head_idx2.size:
            head_ports = dst_port[head_idx2]
            net._occupied[head_ports] += 1
            _refresh_first_free(net, head_ports)
        # Wormhole: body/tail flits must follow the head into the same
        # downstream VC; the tail releases the binding.
        net._vc_down[src[fwd_idx]] = np.where(fwd_tail, -1, dst)
