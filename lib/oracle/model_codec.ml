module Codec = Agg_trace.Codec
module Event = Agg_trace.Event
module Trace = Agg_trace.Trace
module Weights = Agg_trace.Weights

let header = Codec.header

let parse_error line message = raise (Codec.Parse_error { line; message })

type line = Event of Event.t | Weight of int * Agg_cache.Policy.weight | Blank

let parse_line ~lineno ~expect_header line =
  let line = String.trim line in
  if line = "" then Blank
  else if String.length line > 0 && line.[0] = '#' then begin
    if expect_header && lineno = 1 && line <> header then
      parse_error lineno (Printf.sprintf "unknown header %S (expected %S)" line header);
    Blank
  end
  else
    let int_field name s =
      match int_of_string_opt s with
      | Some v when v >= 0 -> v
      | Some _ -> parse_error lineno (name ^ " must be non-negative")
      | None -> parse_error lineno (Printf.sprintf "bad %s %S" name s)
    in
    let positive_field name s =
      match int_of_string_opt s with
      | Some v when v > 0 -> v
      | Some v -> parse_error lineno (Printf.sprintf "%s must be positive (got %d)" name v)
      | None -> parse_error lineno (Printf.sprintf "bad %s %S" name s)
    in
    match String.split_on_char ' ' line |> List.filter (fun s -> s <> "") with
    | [ "w"; file_s; size_s; cost_s ] ->
        let file = int_field "file" file_s in
        let size = positive_field "size" size_s in
        let cost = positive_field "cost" cost_s in
        Weight (file, { Agg_cache.Policy.size; cost })
    | [ seq_s; op_s; client_s; file_s ] ->
        let op =
          if String.length op_s <> 1 then parse_error lineno (Printf.sprintf "bad op %S" op_s)
          else
            match Event.op_of_char op_s.[0] with
            | Some op -> op
            | None -> parse_error lineno (Printf.sprintf "bad op %S" op_s)
        in
        let seq = int_field "seq" seq_s in
        let client = int_field "client" client_s in
        let file = int_field "file" file_s in
        Event { Event.seq; op; client; file }
    | _ ->
        parse_error lineno
          (Printf.sprintf "expected 'seq op client file' or 'w file size cost', got %S" line)

let read_channel_weighted ic =
  let trace = Trace.create () in
  let weights = Weights.create () in
  let lineno = ref 0 in
  (try
     while true do
       let line = input_line ic in
       incr lineno;
       match parse_line ~lineno:!lineno ~expect_header:true line with
       | Event event -> Trace.append trace event
       | Weight (file, w) -> Weights.set weights file w
       | Blank -> ()
     done
   with End_of_file -> ());
  (trace, weights)

let of_string_weighted s =
  let trace = Trace.create () in
  let weights = Weights.create () in
  let lines = String.split_on_char '\n' s in
  List.iteri
    (fun i line ->
      match parse_line ~lineno:(i + 1) ~expect_header:true line with
      | Event event -> Trace.append trace event
      | Weight (file, w) -> Weights.set weights file w
      | Blank -> ())
    lines;
  (trace, weights)
