let table ~header rows =
  let all = header :: rows in
  let cols = List.fold_left (fun m r -> max m (List.length r)) 0 all in
  let widths = Array.make cols 0 in
  List.iter
    (List.iteri (fun i cell -> widths.(i) <- max widths.(i) (String.length cell)))
    all;
  let render_row r =
    String.concat "  "
      (List.mapi (fun i cell -> Printf.sprintf "%*s" widths.(i) cell) r)
  in
  let sep =
    String.concat "  " (Array.to_list (Array.map (fun w -> String.make w '-') widths))
  in
  String.concat "\n" (render_row header :: sep :: List.map render_row rows) ^ "\n"

let print_table ~header rows = print_string (table ~header rows)
let fmt_ns ns = Printf.sprintf "%.1f" ns
let fmt_ms s = Printf.sprintf "%.2f" (s *. 1000.0)
let fmt_kb kb = Printf.sprintf "%.1f" kb
let fmt_x x = Printf.sprintf "%.2fx" x

let checked_elapsed ~what s =
  if Float.is_nan s || s < 0.0 || s = Float.infinity then
    invalid_arg
      (Printf.sprintf "%s: elapsed %f is not a non-negative duration" what s);
  s

let checked_rate ~what ~elapsed ~ops =
  let elapsed = checked_elapsed ~what elapsed in
  if ops <= 0 || elapsed *. 1e9 < float_of_int ops then
    invalid_arg
      (Printf.sprintf "%s: %d ops in %g s is below 1 ns/op" what ops elapsed);
  float_of_int ops /. elapsed

let section title =
  let bar = String.make (String.length title + 8) '=' in
  Printf.printf "\n%s\n==  %s  ==\n%s\n" bar title bar

module Json = struct
  type t =
    | Null
    | Bool of bool
    | Int of int
    | Float of float
    | String of string
    | List of t list
    | Obj of (string * t) list

  let escape s =
    let buf = Buffer.create (String.length s + 2) in
    String.iter
      (fun c ->
        match c with
        | '"' -> Buffer.add_string buf "\\\""
        | '\\' -> Buffer.add_string buf "\\\\"
        | '\n' -> Buffer.add_string buf "\\n"
        | '\t' -> Buffer.add_string buf "\\t"
        | '\r' -> Buffer.add_string buf "\\r"
        | c when Char.code c < 0x20 ->
            Buffer.add_string buf (Printf.sprintf "\\u%04x" (Char.code c))
        | c -> Buffer.add_char buf c)
      s;
    Buffer.contents buf

  (* "%.6g" keeps the files diffable across runs of equal results; JSON
     has no inf/nan, so non-finite floats degrade to null. *)
  let float_repr f =
    if Float.is_nan f || Float.abs f = Float.infinity then "null"
    else
      let s = Printf.sprintf "%.6g" f in
      (* "1e+06" is valid JSON; "1." is not — normalize trailing dot. *)
      if String.length s > 0 && s.[String.length s - 1] = '.' then s ^ "0" else s

  let rec emit buf indent v =
    let pad n = Buffer.add_string buf (String.make n ' ') in
    match v with
    | Null -> Buffer.add_string buf "null"
    | Bool b -> Buffer.add_string buf (if b then "true" else "false")
    | Int i -> Buffer.add_string buf (string_of_int i)
    | Float f -> Buffer.add_string buf (float_repr f)
    | String s ->
        Buffer.add_char buf '"';
        Buffer.add_string buf (escape s);
        Buffer.add_char buf '"'
    | List [] -> Buffer.add_string buf "[]"
    | List items ->
        Buffer.add_string buf "[\n";
        List.iteri
          (fun i item ->
            if i > 0 then Buffer.add_string buf ",\n";
            pad (indent + 2);
            emit buf (indent + 2) item)
          items;
        Buffer.add_char buf '\n';
        pad indent;
        Buffer.add_char buf ']'
    | Obj [] -> Buffer.add_string buf "{}"
    | Obj fields ->
        Buffer.add_string buf "{\n";
        List.iteri
          (fun i (k, item) ->
            if i > 0 then Buffer.add_string buf ",\n";
            pad (indent + 2);
            Buffer.add_char buf '"';
            Buffer.add_string buf (escape k);
            Buffer.add_string buf "\": ";
            emit buf (indent + 2) item)
          fields;
        Buffer.add_char buf '\n';
        pad indent;
        Buffer.add_char buf '}'

  let to_string v =
    let buf = Buffer.create 4096 in
    emit buf 0 v;
    Buffer.add_char buf '\n';
    Buffer.contents buf

  let write_file path v =
    let oc = open_out path in
    output_string oc (to_string v);
    close_out oc;
    Printf.printf "wrote %s\n%!" path
end

type column = string * string * (Json.t -> string)

let cell = function
  | Json.String s -> s
  | Json.Int i -> string_of_int i
  | Json.Float f -> Printf.sprintf "%g" f
  | Json.Bool b -> string_of_bool b
  | Json.Null -> "-"
  | Json.List _ | Json.Obj _ -> invalid_arg "Report.cell: not a scalar"

let float fmt = function
  | Json.Float f -> fmt f
  | Json.Int i -> fmt (float_of_int i)
  | _ -> invalid_arg "Report.float: not a number"

let rows_table columns rows =
  let field row key =
    match row with
    | Json.Obj fields when List.mem_assoc key fields -> List.assoc key fields
    | _ -> invalid_arg (Printf.sprintf "Report.rows_table: row has no %S" key)
  in
  table
    ~header:(List.map (fun (header, _, _) -> header) columns)
    (List.map
       (fun row -> List.map (fun (_, key, fmt) -> fmt (field row key)) columns)
       rows)

let print_rows columns rows =
  print_string (rows_table columns rows);
  print_newline ()
