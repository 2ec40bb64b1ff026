let pp ppf events =
  Format.fprintf ppf "== speculation summary ==@.";
  (* Event counts per type, in first-seen order for stability. *)
  let order = ref [] in
  let counts = Hashtbl.create 16 in
  List.iter
    (fun (e : Event.t) ->
      let name = Event.type_name e.Event.payload in
      match Hashtbl.find_opt counts name with
      | Some n -> Hashtbl.replace counts name (n + 1)
      | None ->
        Hashtbl.add counts name 1;
        order := name :: !order)
    events;
  List.iter
    (fun name -> Format.fprintf ppf "%-20s %d@." name (Hashtbl.find counts name))
    (List.rev !order);
  Format.fprintf ppf "@.== analytics ==@.";
  Analytics.pp ppf (Analytics.analyse events);
  let cascades =
    List.filter_map
      (fun (e : Event.t) ->
        match e.Event.payload with
        | Event.Rollback_cascade _ -> Some e
        | _ -> None)
      events
  in
  if cascades <> [] then begin
    Format.fprintf ppf "@.== rollback cascades ==@.";
    List.iter (fun e -> Format.fprintf ppf "%a@." Event.pp e) cascades
  end

let to_string events = Format.asprintf "%a" pp events
