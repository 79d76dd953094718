(** A re-export of {!Tmx_json} for code that still names
    [Tmx_service.Json]. *)

include module type of struct
  include Tmx_json
end
