exception Parse_error of { line : int; message : string }

let header = "#aggtrace v1"

let parse_error line message = raise (Parse_error { line; message })

(* Reader chunk and writer flush size. *)
let chunk_size = 65_536

(* --- writer ---------------------------------------------------------------- *)

(* Decimal formatting by hand: the same bytes as [Printf "%d"]. *)
let rec add_digits buf n =
  if n >= 10 then add_digits buf (n / 10);
  Buffer.add_char buf (Char.unsafe_chr (48 + (n mod 10)))

let add_decimal buf n = if n < 0 then Buffer.add_string buf (string_of_int n) else add_digits buf n

(* The one emitter behind [write_channel] and [to_string]: [flush] is
   offered the buffer whenever it holds at least a chunk. *)
let emit ?weights buf ~flush trace =
  let field n =
    Buffer.add_char buf ' ';
    add_decimal buf n
  in
  let end_line () =
    Buffer.add_char buf '\n';
    if Buffer.length buf >= chunk_size then flush buf
  in
  Buffer.add_string buf header;
  Buffer.add_char buf '\n';
  Option.iter
    (fun ws ->
      List.iter
        (fun (file, (w : Agg_cache.Policy.weight)) ->
          Buffer.add_char buf 'w';
          field file;
          field w.size;
          field w.cost;
          end_line ())
        (Weights.to_alist ws))
    weights;
  Trace.iter
    (fun (e : Event.t) ->
      add_decimal buf e.seq;
      Buffer.add_char buf ' ';
      Buffer.add_char buf (Event.op_to_char e.op);
      field e.client;
      field e.file;
      end_line ())
    trace

let write_channel ?weights oc trace =
  let flush buf =
    Buffer.output_buffer oc buf;
    Buffer.clear buf
  in
  let buf = Buffer.create (2 * chunk_size) in
  emit ?weights buf ~flush trace;
  flush buf

let to_string ?weights trace =
  let buf = Buffer.create 4096 in
  emit ?weights buf ~flush:ignore trace;
  Buffer.contents buf

(* --- reader ---------------------------------------------------------------- *)

type line = Event of Event.t | Weight of File_id.t * Agg_cache.Policy.weight | Blank

(* The accepted language and every error message: each line the
   canonical fast path below does not take comes here. *)
let parse_line ~lineno line =
  let line = String.trim line in
  if line = "" then Blank
  else if String.length line > 0 && line.[0] = '#' then begin
    if lineno = 1 && line <> header then
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

(* At most 18 decimal digits always fit in an OCaml int, so the fast
   path needs no overflow check; longer fields take [parse_line]. *)
let max_digits = 18

(* Top-level loops, all state in arguments: a local closure over [buf]
   would be allocated on every call. *)
let rec skip_digits buf j limit =
  if j < limit && Bytes.get buf j >= '0' && Bytes.get buf j <= '9' then skip_digits buf (j + 1) limit
  else j

(* The end of a run of 1 to [max_digits] digits starting at [i], or -1. *)
let digits_end buf i stop =
  let j = skip_digits buf i (Int.min stop (i + max_digits + 1)) in
  if j = i || j - i > max_digits then -1 else j

let rec decimal_from buf k j acc =
  if k = j then acc else decimal_from buf (k + 1) j ((acc * 10) + Char.code (Bytes.get buf k) - 48)

let decimal buf i j = decimal_from buf i j 0

(* The canonical event line [DIGITS SP op SP DIGITS SP DIGITS '\n'] at
   [pos], parsed in place: hands the event to [on_event] and returns the
   index of its newline, or returns -1 without a call for any other line
   (or one that does not end before [stop]). *)
let canonical_event ~on_event buf pos stop =
  let e1 = digits_end buf pos stop in
  if e1 < 0 || e1 + 3 >= stop || Bytes.get buf e1 <> ' ' || Bytes.get buf (e1 + 2) <> ' ' then -1
  else
    let e2 = digits_end buf (e1 + 3) stop in
    if e2 < 0 || e2 + 1 >= stop || Bytes.get buf e2 <> ' ' then -1
    else
      let e3 = digits_end buf (e2 + 1) stop in
      if e3 < 0 || e3 >= stop || Bytes.get buf e3 <> '\n' then -1
      else
        match Event.op_of_char (Bytes.get buf (e1 + 1)) with
        | Some op ->
            on_event
              {
                Event.seq = decimal buf pos e1;
                op;
                client = decimal buf (e1 + 3) e2;
                file = decimal buf (e2 + 1) e3;
              };
            e3
        | None -> -1

let rec find_newline buf i stop =
  if i >= stop then -1 else if Bytes.get buf i = '\n' then i else find_newline buf (i + 1) stop

(* Scans the lines of [buf.[pos, stop)], counting them in [lineno], and
   returns where the first incomplete line starts; with [eof] the final
   unterminated line is complete too. *)
let scan_lines ~on_event ~on_weight lineno buf pos stop ~eof =
  let slow pos nl =
    incr lineno;
    match parse_line ~lineno:!lineno (Bytes.sub_string buf pos (nl - pos)) with
    | Event e -> on_event e
    | Weight (file, w) -> on_weight file w
    | Blank -> ()
  in
  let rec go pos =
    if pos >= stop then pos
    else
      let nl = canonical_event ~on_event buf pos stop in
      if nl >= 0 then begin
        incr lineno;
        go (nl + 1)
      end
      else
        let nl = find_newline buf pos stop in
        if nl >= 0 then begin
          slow pos nl;
          go (nl + 1)
        end
        else if eof then begin
          slow pos stop;
          stop
        end
        else pos
  in
  go pos

(* The channel scanner: one chunk buffer, refilled through [input]. It
   doubles only to hold a single line longer than itself. *)
let scan_channel ic ~on_event ~on_weight =
  let lineno = ref 0 in
  let rec fill buf filled =
    let pos = scan_lines ~on_event ~on_weight lineno buf 0 filled ~eof:false in
    let rest = filled - pos in
    let buf =
      if rest = Bytes.length buf then Bytes.extend buf 0 (Bytes.length buf)
      else begin
        Bytes.blit buf pos buf 0 rest;
        buf
      end
    in
    let n = input ic buf rest (Bytes.length buf - rest) in
    if n = 0 then ignore (scan_lines ~on_event ~on_weight lineno buf 0 rest ~eof:true)
    else fill buf (rest + n)
  in
  fill (Bytes.create chunk_size) 0

let scan_string s ~on_event ~on_weight =
  ignore
    (scan_lines ~on_event ~on_weight (ref 0) (Bytes.unsafe_of_string s) 0 (String.length s) ~eof:true)

let fold_channel ic ~init ~f =
  let acc = ref init in
  scan_channel ic ~on_event:(fun e -> acc := f !acc e) ~on_weight:(fun _ _ -> ());
  !acc

let collect scan =
  let trace = Trace.create () in
  let weights = Weights.create () in
  scan ~on_event:(Trace.append trace) ~on_weight:(Weights.set weights);
  (trace, weights)

let read_channel_weighted ic = collect (scan_channel ic)
let read_channel ic = fst (read_channel_weighted ic)
let of_string_weighted s = collect (scan_string s)
let of_string s = fst (of_string_weighted s)

let write_file ?weights path trace =
  let oc = open_out path in
  Fun.protect ~finally:(fun () -> close_out oc) (fun () -> write_channel ?weights oc trace)

let read_file path =
  let ic = open_in path in
  Fun.protect ~finally:(fun () -> close_in ic) (fun () -> read_channel ic)

let read_file_weighted path =
  let ic = open_in path in
  Fun.protect ~finally:(fun () -> close_in ic) (fun () -> read_channel_weighted ic)

let fold_file path ~init ~f =
  let ic = open_in path in
  Fun.protect ~finally:(fun () -> close_in ic) (fun () -> fold_channel ic ~init ~f)

let iter_file path f = fold_file path ~init:() ~f:(fun () event -> f event)
