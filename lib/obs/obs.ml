type format = Chrome | Graphml | Summary | Flame | Text

let all_formats = [ Chrome; Graphml; Summary; Flame; Text ]

let format_name = function
  | Chrome -> "chrome"
  | Graphml -> "graphml"
  | Summary -> "summary"
  | Flame -> "flame"
  | Text -> "text"

let format_of_string s =
  match List.find_opt (fun f -> format_name f = s) all_formats with
  | Some f -> Ok f
  | None ->
    Error
      (Printf.sprintf "unknown trace format %S (expected %s)" s
         (String.concat "|" (List.map format_name all_formats)))

let export_string fmt events =
  match fmt with
  | Chrome -> Export_chrome.to_string events
  | Graphml -> Export_graphml.to_string events
  | Summary -> Summary.to_string events
  | Flame -> Export_flame.to_string events
  | Text ->
    Format.asprintf "%a"
      (fun ppf -> List.iter (fun e -> Format.fprintf ppf "%a@." Event.pp e))
      events

let export_file fmt ~file events =
  if file = "-" then output_string stdout (export_string fmt events)
  else begin
    let oc = open_out file in
    Fun.protect
      ~finally:(fun () -> close_out oc)
      (fun () -> output_string oc (export_string fmt events))
  end
