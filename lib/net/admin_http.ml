(* The admin endpoint's wire format: a minimal HTTP/1.0 exchange sharing
   a replica's listening port. A protocol connection opens with a hello
   frame whose first bytes are a little-endian length (tiny, so never
   printable ASCII); an HTTP request opens with a method name. No HTTP
   library: one request line in, one Content-Length response out,
   connection closed. Headers and body (if any) are irrelevant to the
   admin surface and never parsed. *)

let methods = [ "GET "; "HEAD"; "POST" ]

(* A request line longer than this is answered with its first
   [max_line] bytes: outside input may not grow a socket's buffer. *)
let max_line = 4096

(* Classify on whatever prefix has arrived: the moment it diverges from
   every method we serve this is a protocol peer — never judge by the
   first byte alone. A true prefix shorter than a method is a dribbling
   HTTP client: wait for more (the caller bounds the wait). *)
let sniff s =
  let n = String.length s in
  if n = 0 then `Wait
  else if not (List.exists (fun m -> String.sub m 0 n = s) methods) then `Protocol
  else if n = 4 then `Http
  else `Wait

(* The path of the request whose bytes are [buffered], once its line is
   complete or over the cap. *)
let request_path buffered =
  let line =
    match String.index_opt buffered '\n' with
    | Some i -> Some (String.sub buffered 0 i)
    | None when String.length buffered > max_line -> Some (String.sub buffered 0 max_line)
    | None -> None
  in
  Option.map
    (fun line ->
      match String.split_on_char ' ' (String.concat "" (String.split_on_char '\r' line)) with
      | _meth :: path :: _ -> path
      | _ -> "/")
    line

let response ~status ~content_type body =
  Printf.sprintf
    "HTTP/1.0 %s\r\nContent-Type: %s\r\nContent-Length: %d\r\nConnection: \
     close\r\n\r\n%s"
    status content_type (String.length body) body

(* [routes] maps a path to its content type and body. *)
let answer routes path =
  match routes path with
  | Some (content_type, body) -> response ~status:"200 OK" ~content_type body
  | None -> response ~status:"404 Not Found" ~content_type:"text/plain" "not found\n"

let stopped = response ~status:"503 Service Unavailable" ~content_type:"text/plain" "stopped\n"
