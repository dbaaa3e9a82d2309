(** Seeded mutant battery: the lint's own certification.

    A static certifier is only trustworthy if it demonstrably rejects
    broken artifacts.  [battery] derives a fixed set of mutants from
    [C(w, t)] at three levels — the raw description (well-formedness),
    the topology's quiescent semantics (certification, including one
    [C(16, 16)] mutant that only the escalate pass refutes), and the
    compiled runtime's jump tables (CSR faithfulness) — and records,
    for each, the diagnostics actually emitted.  Every mutant carries a
    {e pinned} expected code; the test suite and the [--mutate] CLI
    mode fail if any mutant escapes or reports a different primary
    code.

    The battery is deterministic: mutation sites are chosen
    structurally (first/last balancer, first port, paired layers), not
    randomly, so the expected codes can be pinned exactly. *)

type outcome = {
  name : string;  (** stable mutant identifier, e.g. ["csr-rewire"] *)
  description : string;  (** what was corrupted *)
  expected : string;  (** pinned diagnostic code that must appear *)
  got : string list;  (** codes actually emitted, deduplicated, in order *)
  rejected : bool;  (** [expected] appears in [got] *)
}

val battery : ?w:int -> ?t:int -> unit -> outcome list
(** Run the full battery against mutants of [C(w, t)] (default
    [C(8, 8)]).  [w] must admit bounded-exhaustive checking for the
    semantic mutants to be decidable ([w <= 8] recommended). *)

val all_rejected : outcome list -> bool

val pp_outcome : Format.formatter -> outcome -> unit
(** One line: [name: expected CODE, got CODES — verdict]. *)

val to_json : outcome list -> string
