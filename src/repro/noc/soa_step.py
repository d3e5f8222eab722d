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

Up to 16x16 a cycle's cost is mostly NumPy's fixed per-call dispatch, so
the state is laid out for few calls per cycle.  Flits are packed into int64
slot values — ``packet_id << 21 | is_tail << 20 | flit_index`` — and each
VC ring keeps absolute front/tail slot ids, so a peek is one gather.  Each
port keeps a free-VC bitmask: a head push is one XOR, a tail release one
``bitwise_or.at``, and lookup tables give the first free VC and the VCO
numerator.  A move has one target VC — the wormhole binding, else the
downstream port's first free VC — and one occupancy test.

Injection picks its form by the size of the active set (nodes with queued
flits).  The vector pass costs about 50 NumPy calls whatever the set size,
while a solo 8x8 episode has a median of 6 active nodes, so below
:data:`SCALAR_INJECT_BELOW` nodes :func:`inject` walks the set one node at
a time with scalar element reads and writes.  Larger sets — 16x16 episodes
and the batched lanes of dataset builds — keep the vector pass.  Both
forms leave every state array equal.

Per-candidate routing and arbitration lookups come from tables precomputed
per topology (see :class:`repro.noc.soa.SoAMeshNetwork`): the XY next-hop
table, the downstream-port base per ``(router, output)`` pair, and the
rotation priority key per VC for each of the 60 (= lcm of 3/4/5-port
routers) arbitration phases.
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

#: Active-node count below which :func:`inject` runs the scalar pass.
#:
#: Measured per ``inject`` call, binned by active-set size, with each form
#: forced in turn over the same trajectories (uniform traffic at
#: 0.005–0.04, plus a FIR-0.8 flood from 0.02 up; Python 3.11, NumPy 2.4,
#: shared 2-vCPU host).  The scalar form costs about 5 µs plus 1.5–2 µs per
#: node.  The vector form costs 30–45 µs flat on solo networks and 50–85 µs
#: on 4-lane batches.  They cross at about 25 active nodes on a solo 16x16
#: network, 26 on a 4-lane 8x8 batch, 30 on a 4-lane 16x16 batch and above
#: 30 on a solo 32x32 network.  A solo 8x8 network never exceeded 18 active
#: nodes.  A first round, before the scalar form was tuned, crossed at
#: 16–23.  16 stays below every crossover of both rounds.  It sends 99% of
#: ``chaos-8x8``'s inject calls (median 6 active) to the scalar form and
#: keeps 93% of ``matrix-16x16``'s (median 22) on the vector form, where
#: the two are within 10% of each other.
SCALAR_INJECT_BELOW = 16


# -- phase 1: injection -------------------------------------------------------


def inject(net, cycle: int) -> None:
    """Move flits from source queues into LOCAL input ports (one cycle).

    Mirrors ``MeshNetwork._inject``: throttled nodes first accrue fractional
    bandwidth credit (capped at one cycle's worth), then every node with a
    non-empty source queue injects up to ``injection_bandwidth`` flits,
    gated by free-VC availability and — for *new* packets only — by the
    node's injection allowance.  Below :data:`SCALAR_INJECT_BELOW` active
    nodes the injection runs node by node instead of as array operations.
    """
    bandwidth = net.injection_bandwidth
    accruing = net._accruing_idx
    if accruing.size:
        net._allowance[accruing] = np.minimum(
            net._allowance[accruing] + net._limits[accruing] * bandwidth,
            float(bandwidth),
        )
    active = net._sq_count.nonzero()[0]
    if active.size == 0:
        return
    if active.size < SCALAR_INJECT_BELOW:
        _inject_scalar(net, active.tolist(), cycle)
    else:
        _inject_vector(net, active, cycle)


def _inject_vector(net, active: np.ndarray, cycle: int) -> None:
    """Up to ``injection_bandwidth`` vector passes over the ``active`` nodes."""
    active = _inject_pass(net, active, cycle)
    for _ in range(net.injection_bandwidth - 1):
        if active.size == 0:
            break
        active = _inject_pass(net, active, cycle)


def _inject_pass(net, nodes: np.ndarray, cycle: int) -> np.ndarray:
    """One flit-injection attempt per node; returns nodes worth revisiting."""
    capacity = net.source_queue_capacity

    front = net._sq_head[nodes]
    val = net._sq_flat[nodes * capacity + front]
    pkt = val >> PKT_SHIFT
    is_head = (val & FIDX_MASK) == 0
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

    # Target LOCAL VC, as in the switch kernel: a head takes the port's
    # first free VC; body/tail flits continue in their head's VC (cached per
    # node: a source queue holds at most one partially injected packet).
    local_port = nodes * 5
    free_vc = local_port * net.num_vcs + net._first_free[net._port_free[local_port]]
    vc = np.where(is_head, free_vc, net._node_vc[nodes])
    has_vc = (vc >= 0) & (net._vc_count.take(vc, mode="clip") < net.vc_depth)
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
        local_port = local_port[has_vc]
        if throttled is not None:
            throttled = throttled[has_vc]

    # Pop the source queue, push into the chosen VC.
    net._sq_head[nodes] = (front + 1) % capacity
    net._sq_count[nodes] -= 1
    slot = net._vc_tail[vc]
    net._vc_slots[slot] = val
    net._vc_tail[vc] = net._slot_next[slot]
    net._vc_count[vc] += 1
    net._buf_writes[local_port] += 1
    heads = is_head.nonzero()[0]
    if heads.size:
        head_vc = vc[heads]
        net._vc_alloc[head_vc] = pkt[heads]
        net._node_vc[nodes[heads]] = head_vc
        net._port_free[local_port[heads]] ^= net._vc_bit[head_vc]
    if throttled is not None and throttled.any():
        net._allowance[nodes[throttled]] -= 1.0

    new_idx = new_head.nonzero()[0]
    if new_idx.size:
        net._record_injected_ids(pkt[new_idx], cycle)

    if net.injection_bandwidth == 1:
        return nodes[:0]
    return nodes[net._sq_count[nodes] > 0]


def _inject_scalar(net, nodes: list[int], cycle: int) -> None:
    """:func:`_inject_pass` one node at a time, every bandwidth attempt of a
    node before the next node.

    Nodes touch disjoint state (their own source ring, LOCAL port and
    packets), so node-major order equals the vector kernel's pass-major
    order.  Each step is a scalar element read or write, which for a
    handful of nodes costs less than the vector pass's fixed ~50 calls.
    """
    capacity = net.source_queue_capacity
    bandwidth = net.injection_bandwidth
    num_vcs = net.num_vcs
    depth = net.vc_depth
    sq_word = net._sq_flat.item
    sq_head = net._sq_head
    sq_count = net._sq_count
    injected = net._pkt_injected.values
    limits = net._limits if net._limited_idx.size else None
    allowance = net._allowance
    port_free = net._port_free
    first_free = net._first_free.item
    node_vc = net._node_vc
    vc_count = net._vc_count
    vc_tail = net._vc_tail
    vc_slots = net._vc_slots
    slot_next = net._slot_next.item
    vc_alloc = net._vc_alloc
    buf_writes = net._buf_writes
    new_pids = []
    for node in nodes:
        throttled = limits is not None and limits.item(node) < 1.0
        front = sq_head.item(node)
        count = sq_count.item(node)
        local_port = node * 5
        moved = 0
        while moved < bandwidth and count:
            val = sq_word(node * capacity + front)
            pkt = val >> PKT_SHIFT
            is_head = val & FIDX_MASK == 0
            # Only the head flit of a packet not yet in the network is gated
            # by the allowance (continuation flits never strand a worm).
            new_head = is_head and injected.item(pkt) < 0
            if throttled and new_head and allowance.item(node) < 1.0:
                break
            if is_head:
                free_mask = port_free.item(local_port)
                free = first_free(free_mask)
                if free < 0:
                    break
                vc = local_port * num_vcs + free
            else:
                vc = node_vc.item(node)
            fill = vc_count.item(vc)
            if fill >= depth:
                break
            front = (front + 1) % capacity
            count -= 1
            moved += 1
            slot = vc_tail.item(vc)
            vc_slots[slot] = val
            vc_tail[vc] = slot_next(slot)
            vc_count[vc] = fill + 1
            buf_writes[local_port] += 1
            if is_head:
                vc_alloc[vc] = pkt
                node_vc[node] = vc
                port_free[local_port] = free_mask ^ (1 << free)
            if throttled:
                allowance[node] -= 1.0
            if new_head:
                new_pids.append(pkt)
        if moved:
            sq_head[node] = front
            sq_count[node] = count
    if new_pids:
        net._record_injected_ids(np.array(new_pids, dtype=np.int64), cycle)


# -- phases 2 + 3: switch allocation and link traversal ----------------------


def switch(net, cycle: int) -> None:
    """Allocate and execute this cycle's flit moves over the whole mesh."""
    num_vcs = net.num_vcs

    q = (net._vc_count > 0).nonzero()[0]
    if q.size == 0:
        return

    # Peek every occupied VC's head-of-line flit (one packed gather).
    val = net._vc_slots[net._vc_front[q]]
    pkt = val >> PKT_SHIFT
    is_head = (val & FIDX_MASK) == 0
    # Wormhole binding: the downstream VC the packet's head took, -1 while
    # unbound (always for a head front: a tail pop resets the binding).
    cached = net._vc_down[q]
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
        bound = cached >= 0
        if bound.any():
            bound_dir = net._tables.opposite[(cached // num_vcs) % 5]
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
    # Batched lanes share the solo key table: a VC reads its phase row at
    # its episode-local id.
    key_row = net._key_table[cycle % KEY_PERIOD]
    key = key_row[q] if net._q_local is None else key_row[net._q_local[q]]

    # One target VC per candidate: its binding, else the downstream port's
    # first free (unallocated, hence empty) VC; negative when there is none
    # and for ejections, whose target is never read.
    down_port = net._down_port[slot_id]
    free_vc = down_port * num_vcs + net._first_free[net._port_free[down_port]]
    target = np.where(cached >= 0, cached, free_vc)
    eligible = eject | (
        (target >= 0) & (net._vc_count.take(target, mode="clip") < net.vc_depth)
    )

    # Winner per (router, output direction): minimum priority key among the
    # eligible candidates.  Keys are unique within a slot (distinct ports
    # differ in rotation rank, distinct VCs of one port in vc index);
    # ineligible ones carry the sentinel, above every slot's reset value.
    masked_key = np.where(eligible, key, _BIG)
    best = net._best_key
    best[slot_id] = _BIG - 1
    np.minimum.at(best, slot_id, masked_key)
    winners = (masked_key == best[slot_id]).nonzero()[0]

    src = q[winners]
    win_val = val[winners]
    win_tail = (win_val & TAIL_BIT) != 0
    src_port = net._q_port[src]
    tail_idx = win_tail.nonzero()[0]

    # Pops (every winning move reads its source VC's head-of-line flit).
    net._vc_front[src] = net._slot_next[net._vc_front[src]]
    net._vc_count[src] -= 1
    released = src[tail_idx]
    net._vc_alloc[released] = -1
    net._vc_down[released] = -1
    # bincount + whole-array add beats np.add.at's per-element dispatch once
    # the winner set is more than a handful of moves (the batched case).
    net._buf_reads += np.bincount(src_port, minlength=net._buf_reads.size)
    # Released VCs are free again (.at: two tails can leave one port).
    np.bitwise_or.at(net._port_free, src_port[tail_idx], net._vc_bit[released])

    # Ejections (at most one per router per cycle, in ascending node order —
    # the same order the object backend records deliveries in).
    win_eject = eject[winners]
    eject_idx = win_eject.nonzero()[0]
    if eject_idx.size:
        net._record_ejections(
            net._q_node[src[eject_idx]],
            win_tail[eject_idx],
            win_val[eject_idx] >> PKT_SHIFT,
            cycle,
        )

    # Link traversals (pushes; distinct destination VCs by construction).
    fwd_idx = (~win_eject).nonzero()[0]
    if fwd_idx.size:
        fwd = winners[fwd_idx]
        dst = target[fwd]
        fwd_val = win_val[fwd_idx]
        slot = net._vc_tail[dst]
        net._vc_slots[slot] = fwd_val
        net._vc_tail[dst] = net._slot_next[slot]
        net._vc_count[dst] += 1
        dst_port = net._q_port[dst]
        net._buf_writes += np.bincount(dst_port, minlength=net._buf_writes.size)
        head_idx = is_head[fwd].nonzero()[0]
        if head_idx.size:
            head_dst = dst[head_idx]
            net._vc_alloc[head_dst] = fwd_val[head_idx] >> PKT_SHIFT
            net._port_free[dst_port[head_idx]] ^= net._vc_bit[head_dst]
        # Wormhole: body/tail flits must follow the head into the same
        # downstream VC; the tail releases the binding.
        net._vc_down[src[fwd_idx]] = np.where(win_tail[fwd_idx], -1, dst)
