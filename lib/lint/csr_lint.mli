(** CSR faithfulness: certify that a compiled runtime is a faithful
    encoding of its source topology.

    {!Cn_runtime.Network_runtime.view} exposes everything the walk loops
    read — CSR offsets, the flat jump table, the routing table,
    port-mask bases, entry table, initial states — as plain arrays.  {!check}
    decompiles that representation and diffs it against the source
    topology, emitting pinned diagnostics:

    - [CSR001] malformed tables (offset monotonicity, table lengths);
    - [CSR002] row width or port-mask base disagrees with the
      balancer's fan-out;
    - [CSR003] dangling encoded destination (outside both the balancer
      range and the output-wire range);
    - [CSR004] coverage: a balancer is targeted by a number of wires
      other than its fan-in, or an output wire by other than exactly
      one;
    - [CSR005] retired, not reused: it flagged a disagreement between
      the flat table and a second, nested wiring layout the runtime no
      longer has;
    - [CSR006] entry table does not match the topology's input wiring;
    - [CSR007] initial state mismatch;
    - [CSR008] input/output width mismatch;
    - [CSR009] jump-table wiring differs from the topology (the
      decompiled network is not the source network);
    - [CSR010] the precompiled routing image is wrong: a stride-2
      route entry carries a row base off its CSR row, or a port
      strategy that is not the mask [fan_out - 1] for a power-of-two
      fan-out (resp. [-fan_out] for the double-[mod] path).

    The destination encoding mirrors the runtime's: a non-negative
    entry is a balancer id, a negative entry [-(wire + 1)] is network
    output wire [wire].  Input-port assignment is not represented in
    the compiled form (a token entering any port of a balancer is
    indistinguishable), so faithfulness is naturally modulo input-port
    permutation — exactly the equivalence the runtime semantics
    quotient by.

    All findings are collected; checks that would read out of range on
    already-malformed tables are skipped rather than crashing, so a
    corrupted view yields its complete diagnosis. *)

val check :
  subject:string ->
  Cn_network.Topology.t ->
  Cn_runtime.Network_runtime.view ->
  Diagnostic.t list
(** [check ~subject net view] is the complete list of faithfulness
    violations of [view] against [net]; [[]] iff the compiled form is
    faithful. *)
