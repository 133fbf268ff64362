query S05:
select t4.photo_id
from album_owner as t1, friends as t2, album_owner as t3, in_album as t4
where t1.album_id = 5
  and t1.user_id = t2.user_id
  and t2.friend_id = t3.user_id
  and t3.album_id = t4.album_id
