(** The certifiable targets: the three universal constructions plus the
    direct (non-oblivious, lock-free) LL/SC fetch&increment retry loop
    {!Lb_universal.Direct.fetch_inc}, whose give-up under injected
    adversity the harness reports instead of crashing. *)

open Lb_universal

val all : Iface.t list
(** [adt-tree; herlihy; consensus-list; direct]. *)

val find : string -> Iface.t option
