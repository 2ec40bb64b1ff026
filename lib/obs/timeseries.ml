type series = {
  s_name : string;
  s_labels : (string * string) list;  (* sorted by key *)
  times : float array;
  values : float array;
  mutable total : int;  (* points ever recorded *)
}

(* Series are keyed by name plus rendered labels, so hope_shard_lvt
   exists once per shard while plain names keep their old identity. *)
let series_key nm labels =
  match labels with
  | [] -> nm
  | labels ->
      nm ^ "{"
      ^ String.concat "," (List.map (fun (k, v) -> k ^ "=" ^ v) labels)
      ^ "}"

type t = {
  cap : int;
  ts_stride : float;
  tbl : (string, series) Hashtbl.t;
  mutable order : series list;  (* creation order, newest first *)
  mutable fixed : (series * (unit -> float)) list;  (* newest first *)
  mutable samples : int;
}

let create ?(capacity = 1024) ~stride () =
  if capacity < 1 then invalid_arg "Timeseries.create: capacity < 1";
  if not (stride > 0.0) then invalid_arg "Timeseries.create: stride <= 0";
  {
    cap = capacity;
    ts_stride = stride;
    tbl = Hashtbl.create 32;
    order = [];
    fixed = [];
    samples = 0;
  }

let stride t = t.ts_stride
let capacity t = t.cap

let series t ?(labels = []) nm =
  let labels =
    List.sort (fun (a, _) (b, _) -> String.compare a b) labels
  in
  let key = series_key nm labels in
  match Hashtbl.find_opt t.tbl key with
  | Some s -> s
  | None ->
      let s =
        {
          s_name = nm;
          s_labels = labels;
          times = Array.make t.cap 0.0;
          values = Array.make t.cap 0.0;
          total = 0;
        }
      in
      Hashtbl.add t.tbl key s;
      t.order <- s :: t.order;
      s

let find t nm = Hashtbl.find_opt t.tbl nm

let all t =
  List.sort
    (fun (a, sa) (b, sb) ->
      match String.compare a b with
      | 0 ->
          String.compare
            (series_key a sa.s_labels)
            (series_key b sb.s_labels)
      | c -> c)
    (List.rev_map (fun s -> (s.s_name, s)) t.order)

let name s = s.s_name
let labels s = s.s_labels
let total s = s.total
let length s = min s.total (Array.length s.times)

let record s ~time v =
  let cap = Array.length s.times in
  let i = s.total mod cap in
  s.times.(i) <- time;
  s.values.(i) <- v;
  s.total <- s.total + 1

let nth s i =
  let cap = Array.length s.times in
  let n = min s.total cap in
  if i < 0 || i >= n then invalid_arg "Timeseries.nth";
  (* Oldest retained point sits at [total mod cap] once the ring has
     wrapped, at 0 before. *)
  let base = if s.total > cap then s.total mod cap else 0 in
  let j = (base + i) mod cap in
  (s.times.(j), s.values.(j))

let to_list s = List.init (length s) (nth s)

let add_source t nm f =
  let s = series t nm in
  t.fixed <- (s, f) :: List.filter (fun (s', _) -> s' != s) t.fixed

let sample t ~time =
  List.iter (fun (s, f) -> record s ~time (f ())) (List.rev t.fixed);
  t.samples <- t.samples + 1

let samples t = t.samples
