(** Natural loops.

    A natural loop is identified by a back edge [(tail, header)] where
    [header] dominates [tail]; its body is every block that can reach [tail]
    without passing through [header].  Used by the LICM baseline and by
    workload statistics. *)

type loop = {
  header : Label.t;
  body : Label.Set.t;  (** includes the header *)
  back_edges : (Label.t * Label.t) list;  (** tails into this header *)
}

type t

val compute : Cfg.t -> t

(** All loops, one per header, outermost first (by header RPO position). *)
val loops : t -> loop list

(** [depth t l] is the number of loops whose body contains [l]. *)
val depth : t -> Label.t -> int

(** Blocks outside every loop have depth 0. *)
val max_depth : t -> int

(** [preheader_candidates cfg loop] lists the edges entering the header from
    outside the body — the edges a pre-header would intercept. *)
val entry_edges : Cfg.t -> loop -> (Label.t * Label.t) list

(** [insert_preheader g loop] creates an empty block through which every
    entry edge of the loop is routed, and returns its label.  The graph is
    mutated in place; the loop's [body] set remains valid (the pre-header
    lies outside it). *)
val insert_preheader : Cfg.t -> loop -> Label.t
