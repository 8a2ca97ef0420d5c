# Build and run cmd/kvserver: the HTTP front-end over the safe-
# privatization KV store. The binary is pure Go (no cgo), so the run
# stage is scratch.
#
#   docker build -t kvserver .
#   docker run -p 8070:8070 -e KVSERVER_SPEC=tl2+quiesce+batch kvserver
#
# Configuration is by KVSERVER_* environment variables; see
# cmd/kvserver/main.go for the full list and defaults.

FROM golang:1.24 AS build
WORKDIR /src
COPY go.mod ./
COPY . .
RUN CGO_ENABLED=0 go build -trimpath -ldflags='-s -w' -o /out/kvserver ./cmd/kvserver \
 && CGO_ENABLED=0 go build -trimpath -ldflags='-s -w' -o /out/kvload ./cmd/kvload

FROM scratch
COPY --from=build /out/kvserver /kvserver
COPY --from=build /out/kvload /kvload
EXPOSE 8070
ENTRYPOINT ["/kvserver"]
