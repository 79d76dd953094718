include Tmx_json
