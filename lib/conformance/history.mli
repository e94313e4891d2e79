(** Concurrent histories rebuilt from recorded traces.

    The history type is {!Lb_objects.History}, re-exported here, and every
    {!Lb_universal.Harness.result} already carries its run's history.  This
    module adds the other source: the op-lifecycle events ([Op_invoked] /
    [Op_completed]) a {!Lb_observe.Tracer} recorded during the run.  The
    two agree on every field except the clock domain (harness clock vs
    tracer sequence numbers), which induce the same real-time precedence
    order. *)

include module type of struct
  include Lb_objects.History
end

val of_events : ?restarted:(int * int) list -> Lb_observe.Event.stamped list -> t
(** Build a history from a recorded trace ([Tracer.events]).  Timestamps are
    tracer sequence numbers.  [restarted] adds ghost occurrences exactly as
    the harness does (the trace alone does not say which recoveries
    re-invoked an operation). *)
