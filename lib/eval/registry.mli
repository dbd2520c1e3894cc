(** The catalogue of transformations compared by the experiments.

    Every entry is a {!Lcm_core.Pass.Pipeline.t}; [run] is derived from it
    under the sequential context, so the convenience signature (graph in,
    graph out) and the pipeline can never disagree.  Newly introduced
    temporaries are recovered generically as the variables of the output
    that the input never mentioned. *)

type entry = {
  name : string;
  description : string;
  is_paper_algorithm : bool;  (** true for the paper's BCM/ALCM/LCM family *)
  speculative : bool;
      (** may evaluate an expression on a path where the original did not
          (LICM, strength reduction); such entries are exempt from the
          per-path safety properties, by design *)
  preserves_expressions : bool;
      (** the syntactic identity of surviving computations is unchanged, so
          per-expression path counts are comparable with the original's;
          false for the cleanup pipeline, whose copy propagation renames
          operands (only per-path *totals* are comparable there) *)
  pipeline : Lcm_core.Pass.Pipeline.t;
  run : Lcm_cfg.Cfg.t -> Lcm_cfg.Cfg.t;
      (** the pipeline under {!Lcm_core.Pass.default_ctx}, reports dropped *)
}

(** In comparison order: identity, lcse, gcse, licm, strength-reduction,
    ssa-dvnt, morel-renvoise, bcm-edge, lcm-edge, lcm-cleanup, bcm-node,
    alcm-node, lcm-node. *)
val all : entry list

(** Entries whose transformations must satisfy per-path safety. *)
val safe : entry list

(** The paper's BCM/ALCM/LCM family. *)
val paper_algorithms : entry list

val find : string -> entry option
val names : unit -> string list

(** Variables of [transformed] that do not occur in [original] — the
    temporaries a transformation introduced. *)
val new_temps : original:Lcm_cfg.Cfg.t -> transformed:Lcm_cfg.Cfg.t -> string list
