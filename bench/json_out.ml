(* Minimal JSON emitter for the --json machine-readable bench output.
   No external dependency: the document model below covers everything the
   harness needs, and the printer is deterministic (stable field order,
   fixed float formatting) so committed snapshots diff cleanly. *)

type t =
  | Null
  | Bool of bool
  | Int of int
  | Float of float
  | Str of string
  | List of t list
  | Obj of (string * t) list

let add_escaped b s =
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string b "\\\""
      | '\\' -> Buffer.add_string b "\\\\"
      | '\n' -> Buffer.add_string b "\\n"
      | c when Char.code c < 32 ->
        Buffer.add_string b (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char b c)
    s

let rec emit b ~indent v =
  let pad n = Buffer.add_string b (String.make n ' ') in
  match v with
  | Null -> Buffer.add_string b "null"
  | Bool v -> Buffer.add_string b (string_of_bool v)
  | Int i -> Buffer.add_string b (string_of_int i)
  | Float f ->
    if Float.is_finite f then Buffer.add_string b (Printf.sprintf "%.9g" f)
    else Buffer.add_string b "null"
  | Str s ->
    Buffer.add_char b '"';
    add_escaped b s;
    Buffer.add_char b '"'
  | List [] -> Buffer.add_string b "[]"
  | List items ->
    Buffer.add_string b "[\n";
    List.iteri
      (fun i item ->
        if i > 0 then Buffer.add_string b ",\n";
        pad (indent + 2);
        emit b ~indent:(indent + 2) item)
      items;
    Buffer.add_char b '\n';
    pad indent;
    Buffer.add_char b ']'
  | Obj [] -> Buffer.add_string b "{}"
  | Obj kvs ->
    Buffer.add_string b "{\n";
    List.iteri
      (fun i (k, item) ->
        if i > 0 then Buffer.add_string b ",\n";
        pad (indent + 2);
        Buffer.add_char b '"';
        add_escaped b k;
        Buffer.add_string b "\": ";
        emit b ~indent:(indent + 2) item)
      kvs;
    Buffer.add_char b '\n';
    pad indent;
    Buffer.add_char b '}'

let to_string v =
  let b = Buffer.create 4096 in
  emit b ~indent:0 v;
  Buffer.add_char b '\n';
  Buffer.contents b

let write_file ~file v =
  let oc = open_out file in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () -> output_string oc (to_string v))

(* ------------------------------------------------------------------ *)
(* Parsing: just enough JSON to read the snapshots this module writes  *)
(* (bench/compare.exe diffs a new one against                           *)
(* bench/snapshots/baseline.json). Strict about structure, permissive   *)
(* about whitespace.                                                    *)

exception Parse_error of string

let of_string s =
  let n = String.length s in
  let pos = ref 0 in
  let error msg = raise (Parse_error (Printf.sprintf "%s at byte %d" msg !pos)) in
  let peek () = if !pos < n then Some s.[!pos] else None in
  let advance () = incr pos in
  let rec skip_ws () =
    match peek () with
    | Some (' ' | '\t' | '\n' | '\r') ->
      advance ();
      skip_ws ()
    | _ -> ()
  in
  let expect c =
    match peek () with
    | Some c' when c' = c -> advance ()
    | _ -> error (Printf.sprintf "expected %C" c)
  in
  let literal word v =
    if !pos + String.length word <= n && String.sub s !pos (String.length word) = word
    then begin
      pos := !pos + String.length word;
      v
    end
    else error (Printf.sprintf "expected %s" word)
  in
  let parse_string () =
    expect '"';
    let b = Buffer.create 16 in
    let rec go () =
      if !pos >= n then error "unterminated string"
      else
        match s.[!pos] with
        | '"' -> advance ()
        | '\\' ->
          advance ();
          (if !pos >= n then error "unterminated escape"
           else
             match s.[!pos] with
             | '"' -> Buffer.add_char b '"'
             | '\\' -> Buffer.add_char b '\\'
             | '/' -> Buffer.add_char b '/'
             | 'n' -> Buffer.add_char b '\n'
             | 't' -> Buffer.add_char b '\t'
             | 'r' -> Buffer.add_char b '\r'
             | 'b' -> Buffer.add_char b '\b'
             | 'f' -> Buffer.add_char b '\012'
             | 'u' ->
               if !pos + 4 >= n then error "truncated \\u escape";
               let hex = String.sub s (!pos + 1) 4 in
               (match int_of_string_opt ("0x" ^ hex) with
               | Some code when code < 128 -> Buffer.add_char b (Char.chr code)
               | Some _ -> Buffer.add_char b '?'  (* non-ASCII: placeholder *)
               | None -> error "bad \\u escape");
               pos := !pos + 4
             | c -> error (Printf.sprintf "bad escape %C" c));
          advance ();
          go ()
        | c ->
          Buffer.add_char b c;
          advance ();
          go ()
    in
    go ();
    Buffer.contents b
  in
  let parse_number () =
    let start = !pos in
    let is_num_char = function
      | '0' .. '9' | '-' | '+' | '.' | 'e' | 'E' -> true
      | _ -> false
    in
    while !pos < n && is_num_char s.[!pos] do
      advance ()
    done;
    let text = String.sub s start (!pos - start) in
    let is_integral =
      not (String.exists (function '.' | 'e' | 'E' -> true | _ -> false) text)
    in
    if is_integral then
      match int_of_string_opt text with
      | Some i -> Int i
      | None -> error "bad number"
    else
      match float_of_string_opt text with
      | Some f -> Float f
      | None -> error "bad number"
  in
  let rec parse_value () =
    skip_ws ();
    match peek () with
    | None -> error "unexpected end of input"
    | Some '"' -> Str (parse_string ())
    | Some 't' -> literal "true" (Bool true)
    | Some 'f' -> literal "false" (Bool false)
    | Some 'n' -> literal "null" Null
    | Some '[' ->
      advance ();
      skip_ws ();
      if peek () = Some ']' then begin
        advance ();
        List []
      end
      else begin
        let items = ref [ parse_value () ] in
        skip_ws ();
        while peek () = Some ',' do
          advance ();
          items := parse_value () :: !items;
          skip_ws ()
        done;
        expect ']';
        List (List.rev !items)
      end
    | Some '{' ->
      advance ();
      skip_ws ();
      if peek () = Some '}' then begin
        advance ();
        Obj []
      end
      else begin
        let member () =
          skip_ws ();
          let k = parse_string () in
          skip_ws ();
          expect ':';
          let v = parse_value () in
          (k, v)
        in
        let kvs = ref [ member () ] in
        skip_ws ();
        while peek () = Some ',' do
          advance ();
          kvs := member () :: !kvs;
          skip_ws ()
        done;
        expect '}';
        Obj (List.rev !kvs)
      end
    | Some _ -> parse_number ()
  in
  match
    let v = parse_value () in
    skip_ws ();
    if !pos <> n then error "trailing garbage";
    v
  with
  | v -> Ok v
  | exception Parse_error msg -> Error msg

let read_file file =
  let ic = open_in_bin file in
  Fun.protect
    ~finally:(fun () -> close_in ic)
    (fun () -> of_string (really_input_string ic (in_channel_length ic)))
