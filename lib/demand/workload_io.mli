(** Plain-text serialization of workloads.

    Format: an optional comment header ([# ...] lines), then one job per
    line as whitespace-separated integer coordinates in arrival order.
    All jobs must share one dimension.  The format is what
    [cmvrp workload] emits and [cmvrp solve/simulate --input] consume. *)

val to_channel : out_channel -> Workload.t -> unit

val to_string : Workload.t -> string

val of_channel : ?name:string -> in_channel -> Workload.t
(** Raises [Failure] with a line-numbered message on malformed input
    (non-integer field, inconsistent dimension, empty coordinate list). *)

val of_string : ?name:string -> string -> Workload.t

val heatmap : Workload.t -> string
(** ASCII heatmap of the aggregated demand, one character per cell of its
    bounding box.  Raises [Invalid_argument] for a workload that is not
    2-D or whose box holds more than 10^6 cells, and [Energy.Overflow]
    when the box's volume does not fit in an [int]. *)
