(** Facade: pick an export format by name and write a captured stream.

    The CLI surfaces (`bench/main.exe --trace FILE --trace-format FMT`,
    `hope-sim <workload> --trace FILE`) funnel through here. *)

type format =
  | Chrome  (** Trace Event JSON; open in Perfetto or chrome://tracing *)
  | Graphml  (** causal dependency DAG; open in yEd / Gephi / igraph *)
  | Summary  (** human-readable text *)
  | Flame  (** collapsed stacks; open in speedscope or inferno *)
  | Text  (** one {!Event.pp} line per event, in emission order *)

val all_formats : format list

val format_name : format -> string

val format_of_string : string -> (format, string) result
(** Accepts every {!format_name}; the error message lists them. *)

val export_string : format -> Event.t list -> string

val export_file : format -> file:string -> Event.t list -> unit
(** Write the export to [file] (truncating). [file = "-"] writes to
    stdout instead. *)
