(* A gate row: one claim a bench group makes about its own measurements,
   stated as [value op bound] with both sides computed by the group that
   ran them. bench/main.exe writes gate rows into the hope-bench/2
   snapshot; compare.exe evaluates them without knowing which group
   produced them. A non-fatal gate is reported but never fails a
   comparison (e.g. a speedup claim on a machine with too few cores for
   the speedup to exist). *)

type op = Le | Ge | Lt | Eq

type t = {
  experiment : string;  (* the bench group, as named on the command line *)
  gate : string;  (* stable name, unique within the group *)
  value : float;
  op : op;
  bound : float;
  fatal : bool;
}

let ops = [ ("<=", Le); (">=", Ge); ("<", Lt); ("=", Eq) ]
let op_name op = fst (List.find (fun (_, o) -> o = op) ops)

let holds g =
  match g.op with
  | Le -> g.value <= g.bound
  | Ge -> g.value >= g.bound
  | Lt -> g.value < g.bound
  | Eq -> g.value = g.bound

let verdict g =
  if holds g then "ok" else if g.fatal then "FAILED" else "missed (not fatal)"

let to_string g =
  Printf.sprintf "%s/%s: %.6g %s %.6g" g.experiment g.gate g.value
    (op_name g.op) g.bound

let to_json g =
  let open Json_out in
  Obj [ ("experiment", Str g.experiment); ("gate", Str g.gate); ("value", Float g.value);
        ("op", Str (op_name g.op)); ("bound", Float g.bound); ("fatal", Bool g.fatal) ]

(* Strict: a gate that cannot be evaluated is an error, never a pass.
   Non-finite floats are written as null, so they fail here too. *)
let of_json = function
  | Json_out.Obj kvs -> (
    let str k =
      match List.assoc_opt k kvs with Some (Json_out.Str s) -> Some s | _ -> None
    in
    let num k =
      match List.assoc_opt k kvs with
      | Some (Json_out.Float f) when Float.is_finite f -> Some f
      | Some (Json_out.Int i) -> Some (float_of_int i)
      | _ -> None
    in
    let fail fmt =
      let part k = Option.value ~default:"?" (str k) in
      Printf.ksprintf
        (fun m ->
          Error (Printf.sprintf "gate %s/%s: %s" (part "experiment") (part "gate") m))
        fmt
    in
    let op = Option.bind (str "op") (fun o -> List.assoc_opt o ops) in
    match
      (str "experiment", str "gate", op, num "value", num "bound", List.assoc_opt "fatal" kvs)
    with
    | Some experiment, Some gate, Some op, Some value, Some bound, Some (Json_out.Bool fatal) ->
      Ok { experiment; gate; value; op; bound; fatal }
    | None, _, _, _, _, _ | _, None, _, _, _, _ -> fail "missing experiment or gate name"
    | _, _, None, _, _, _ -> fail "unknown op %S" (Option.value ~default:"" (str "op"))
    | _, _, _, None, _, _ -> fail "value is not a finite number"
    | _, _, _, _, None, _ -> fail "bound is not a finite number"
    | _ -> fail "\"fatal\" is not a bool")
  | _ -> Error "non-object gate row"
