(** The XML-based policy specification language of §3.2.

    {[
      <policy default="deny">
        <domain name="applets">
          <grant permission="property.get"/>
          <deny permission="file.open"/>
        </domain>
        <resource prefix="/tmp/" domain="tmpfiles"/>
        <operation permission="file.open"
                   class="java/io/FileInputStream" method="open"/>
        <principal classprefix="applet/" domain="applets"/>
      </policy>
    ]} *)

exception Parse_error of string

type xml = { tag : string; attrs : (string * string) list; children : xml list }

val parse : string -> Policy.t
(** Parse a policy document. @raise Parse_error on malformed input. *)
