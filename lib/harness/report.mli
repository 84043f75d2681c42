(** Plain-text tables for the benchmark harness, in the style of the
    paper's figures' underlying data. *)

val table :
  ?out:Format.formatter -> title:string -> headers:string list -> string list list -> unit
(** Print a titled, column-aligned table. *)

val mps : float -> string
(** Messages/second, in millions ("3.81M"). *)

val kps : float -> string
(** Requests/second, in thousands ("1550K"). *)

val gbps : float -> string
val us : float -> string
val pct : float -> string

(** {1 GC reporting ([--gc] on ixsim)} *)

type gc_mark
(** Allocation and collection counters, and simulated events, at an
    instant. *)

val gc_mark : unit -> gc_mark

val print_gc_since : gc_mark -> unit
(** Print one line: minor words allocated by this domain and minor
    collections since the mark, each also per million simulated events,
    plus major collections and the event count. *)
